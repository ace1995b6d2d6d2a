// The simulation kernel: one event heap and one event loop behind Run,
// RunStream and RunClasses.
//
// Tasks enter in jobs. A job's tasks join a FIFO backlog and are
// admitted while fewer than limit tasks are inside; every departure
// admits the next backlogged task in its place. A finite workload (Run,
// RunClasses) is one job at t = 0; a job stream adds jobs by a renewal
// process (open mode) or from customers who think between jobs (closed
// mode). A station serves its waiting tasks in arrival order on c
// servers (a delay station serves them all at once) or, for multiclass
// queues, in random order (ROS).

package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"finwl/internal/check"
	"finwl/internal/par"
	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// cancelCheckInterval is how many events the DES processes between
// context polls: frequent enough that a cancel lands within
// microseconds, rare enough to stay invisible in the event loop cost.
const cancelCheckInterval = 1024

// event is a pending service completion of a task at a station or, at
// station -1, a job arrival or the end of a think time.
type event struct {
	time    float64
	seq     int // tie-break: events at equal times fire in schedule order
	tag     int // the task's class; 0 in single-class runs
	station int
}

// eventHeap is a binary min-heap of events on (time, seq). Sequence
// numbers are unique, so the pop order is fully determined.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	return h[i].time < h[j].time || (h[i].time == h[j].time && h[i].seq < h[j].seq)
}

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	q[0] = q[len(q)-1]
	q = q[:len(q)-1]
	for i := 0; ; {
		small := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(q) && q.less(c, small) {
				small = c
			}
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*h = q
	return top
}

// serverCount is the number of tasks a station of the given kind
// serves at once; 0 marks a delay station, which serves them all.
func serverCount(kind statespace.Kind, multi int) int {
	switch kind {
	case statespace.Delay:
		return 0
	case statespace.Multi:
		return multi
	}
	return 1
}

// kernel is one replication: a front end sets the model fields, run
// fills the outcome fields.
type kernel struct {
	servers []int // per station, as serverCount returns
	ros     bool  // a freed server starts a uniformly drawn waiting task, not the oldest

	// service samples a service time; route draws where a task goes
	// after service (exits: it leaves the network); entry[tag] is a tag
	// task's entry vector; pick draws the tag of the next admitted task
	// (nil admits tag 0).
	service func(rng *rand.Rand, st, tag int) float64
	route   func(rng *rand.Rand, st, tag int) (dst int, exits bool)
	entry   [][]float64
	pick    func(rng *rand.Rand) int

	// The source: jobs of jobTasks tasks arrive by the renewal law
	// arrival, the first at t = 0 (arrival is unused when jobs = 1);
	// or, when think is set, customers cycle think → submit → drain.
	limit, jobTasks, jobs, customers int
	arrival, think                   *phase.PH

	probes    []float64 // times at which tasks-in-system is recorded
	record    bool      // keep every departure time
	maxEvents int       // 0 = unlimited

	// Outcome.
	departures []float64 // departure times in order, when recorded
	tasksAt    []float64 // tasks in system at each probe time
	drain      float64   // open source: time of the last departure

	rng       *rand.Rand
	events    eventHeap
	seq       int
	now       float64
	busy      []int   // busy servers per station
	waiting   [][]int // tags of the tasks waiting for a server, per station
	backlog   int     // tasks submitted but not yet admitted
	active    int     // tasks inside the network
	departed  int     // tasks that left the network
	submitted int     // jobs submitted so far
	oldest    []int   // closed source: tasks left per outstanding job, FIFO
}

// run simulates one replication under seed, polling ctx every
// cancelCheckInterval events.
func (k *kernel) run(ctx context.Context, seed int64) error {
	k.rng = rand.New(rand.NewSource(seed))
	k.busy = make([]int, len(k.servers))
	k.waiting = make([][]int, len(k.servers))
	k.tasksAt = make([]float64, len(k.probes))
	if k.record {
		k.departures = make([]float64, 0, k.jobs*k.jobTasks)
	}
	if k.think == nil {
		k.submit()
	}
	for c := 0; c < k.customers; c++ {
		k.push(k.think.Sample(k.rng), -1, 0)
	}

	total, probe := k.jobs*k.jobTasks, 0
	for processed := 0; probe < len(k.probes) || (k.think == nil && k.departed < total); processed++ {
		if processed%cancelCheckInterval == 0 {
			if err := check.Canceled(ctx); err != nil {
				return err
			}
		}
		if k.maxEvents > 0 && processed >= k.maxEvents {
			return fmt.Errorf("sim: %d events processed without finishing (tasks may never exit): %w",
				processed, check.ErrNotConverged)
		}
		if len(k.events) == 0 {
			if k.think == nil && k.departed == total {
				break // drained: the remaining probes see an empty system
			}
			return check.Invalid("sim: event list empty before the run finished (deadlocked network?)")
		}
		ev := k.events.pop()
		// The system is piecewise constant: record every probe that
		// falls strictly before the next event.
		for ; probe < len(k.probes) && k.probes[probe] < ev.time; probe++ {
			k.tasksAt[probe] = float64(k.backlog + k.active)
		}
		k.now = ev.time
		if ev.station < 0 {
			k.submit()
			continue
		}
		k.release(ev.station)
		if dst, exits := k.route(k.rng, ev.station, ev.tag); !exits {
			k.arrive(dst, ev.tag)
		} else {
			k.depart(total)
		}
	}
	return nil
}

func (k *kernel) push(t float64, st, tag int) {
	k.seq++
	k.events.push(event{time: t, seq: k.seq, tag: tag, station: st})
}

// arrive places a task at a station: in service, or waiting for a
// server.
func (k *kernel) arrive(st, tag int) {
	if c := k.servers[st]; c > 0 {
		if k.busy[st] >= c {
			k.waiting[st] = append(k.waiting[st], tag)
			return
		}
		k.busy[st]++
	}
	k.push(k.now+k.service(k.rng, st, tag), st, tag)
}

// release frees the server of a completed service at st and starts the
// next waiting task there, if any.
func (k *kernel) release(st int) {
	if k.servers[st] == 0 {
		return
	}
	w := k.waiting[st]
	if len(w) == 0 {
		k.busy[st]--
		return
	}
	next := w[0]
	if k.ros {
		i := k.rng.Intn(len(w))
		next, w[i] = w[i], w[len(w)-1]
		k.waiting[st] = w[:len(w)-1]
	} else {
		k.waiting[st] = w[1:]
	}
	k.push(k.now+k.service(k.rng, st, next), st, next)
}

// admit moves the next backlogged task into the network.
func (k *kernel) admit() {
	k.backlog--
	k.active++
	tag := 0
	if k.pick != nil {
		tag = k.pick(k.rng)
	}
	k.arrive(phase.SamplePMF(k.rng, k.entry[tag]), tag)
}

// submit adds a job to the backlog, admits what the limit allows and,
// for an open source, schedules the next job's arrival.
func (k *kernel) submit() {
	k.submitted++
	k.backlog += k.jobTasks
	for k.active < k.limit && k.backlog > 0 {
		k.admit()
	}
	if k.think != nil {
		k.oldest = append(k.oldest, k.jobTasks)
	} else if k.submitted < k.jobs {
		k.push(k.now+k.arrival.Sample(k.rng), -1, 0)
	}
}

// depart retires a task that left the network; the next backlogged
// task takes its place.
func (k *kernel) depart(total int) {
	k.active--
	k.departed++
	if k.backlog > 0 {
		k.admit()
	}
	if k.record {
		k.departures = append(k.departures, k.now)
	}
	if k.think == nil {
		if k.departed == total {
			k.drain = k.now
		}
		return
	}
	// FIFO attribution: the departure is charged to the oldest
	// outstanding job; when that job is done, its customer thinks again.
	k.oldest[0]--
	if k.oldest[0] == 0 {
		k.oldest = k.oldest[1:]
		k.push(k.now+k.think.Sample(k.rng), -1, 0)
	}
}

// replicate runs one replication per seed seed, seed+1, …, seed+reps−1
// across all CPUs through par.ForErr and returns the results in seed
// order. Each replication's RNG depends only on its own seed, so no
// result depends on how the replications were scheduled.
func replicate[T any](ctx context.Context, seed int64, reps int, run func(seed int64) (T, error)) ([]T, error) {
	if reps < 2 {
		return nil, check.Invalid("sim: need at least 2 replications, got %d", reps)
	}
	out := make([]T, reps)
	err := par.ForErr(ctx, reps, func(r int) (err error) {
		out[r], err = run(seed + int64(r))
		return err
	})
	return out, err
}

// meanSD returns the sample mean and standard deviation of xs, summed
// in index order.
func meanSD(xs []float64) (mean, sd float64) {
	n := float64(len(xs))
	for _, v := range xs {
		mean += v
	}
	mean /= n
	var ss float64
	for _, v := range xs {
		ss += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(ss / (n - 1))
}

// columns reduces n values per replication, taken in seed order by
// at, to the mean and standard deviation of each index.
func columns[T any](runs []T, n int, at func(run T, i int) float64) (mean, sd []float64) {
	mean, sd = make([]float64, n), make([]float64, n)
	col := make([]float64, len(runs))
	for i := range mean {
		for r, run := range runs {
			col[r] = at(run, i)
		}
		mean[i], sd[i] = meanSD(col)
	}
	return mean, sd
}
