// Stream simulation: the discrete-event twin of internal/stream.
// Jobs of JobTasks tasks arrive while earlier ones drain — by a
// phase-type renewal process (open mode) or from a finite pool of
// customers with phase-type think times (closed mode). The sampler
// draws from exactly the laws the solver embeds (the same PH objects,
// the same FIFO admission and FIFO job attribution), so solver vs sim
// discrepancies measure implementation error, not model distance.

package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"

	"finwl/internal/check"
	"finwl/internal/network"
	"finwl/internal/par"
	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// StreamConfig describes one job-stream scenario; the fields mirror
// stream.Config with simulation controls added.
type StreamConfig struct {
	Net      *network.Network
	K        int // admission cap
	JobTasks int // tasks per job

	// Open mode: Jobs arrive by a renewal process with law Arrival,
	// the first at t = 0.
	Jobs    int
	Arrival *phase.PH

	// Closed mode: Customers cycle submit → drain → think.
	Customers int
	Think     *phase.PH

	Probes    []float64 // times at which tasks-in-system is recorded
	Seed      int64
	MaxEvents int // 0 = unlimited
}

// StreamResult is one replication's outcome.
type StreamResult struct {
	TasksAt []float64 // tasks in system at each probe time
	Drain   float64   // open mode: time of the last departure
}

// streamEvent kinds.
const (
	evService = iota
	evArrival
	evThink
)

type streamEvent struct {
	time    float64
	seq     int
	kind    int
	task    int
	station int
}

type streamHeap []streamEvent

func (h streamHeap) Len() int { return len(h) }
func (h streamHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h streamHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *streamHeap) Push(x interface{}) { *h = append(*h, x.(streamEvent)) }
func (h *streamHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (cfg *StreamConfig) validate() error {
	if cfg.Net == nil {
		return check.Invalid("sim: stream: nil network")
	}
	if err := cfg.Net.Validate(); err != nil {
		return err
	}
	if cfg.K < 1 || cfg.JobTasks < 1 {
		return check.Invalid("sim: stream: K=%d JobTasks=%d, want both >= 1", cfg.K, cfg.JobTasks)
	}
	open := cfg.Jobs > 0 || cfg.Arrival != nil
	closed := cfg.Customers > 0 || cfg.Think != nil
	if open == closed {
		return check.Invalid("sim: stream: configure exactly one of open (Jobs + Arrival) and closed (Customers + Think) mode")
	}
	if open {
		if cfg.Jobs < 1 || cfg.Arrival == nil {
			return check.Invalid("sim: stream: open mode needs Jobs >= 1 and an Arrival law")
		}
		return cfg.Arrival.Validate()
	}
	if cfg.Customers < 1 || cfg.Think == nil {
		return check.Invalid("sim: stream: closed mode needs Customers >= 1 and a Think law")
	}
	return cfg.Think.Validate()
}

// RunStream simulates one replication.
func RunStream(cfg StreamConfig) (*StreamResult, error) {
	return RunStreamCtx(context.Background(), cfg)
}

// RunStreamCtx is RunStream under a context, polled every
// cancelCheckInterval events.
func RunStreamCtx(ctx context.Context, cfg StreamConfig) (*StreamResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	open := cfg.Jobs > 0
	net := cfg.Net
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := len(net.Stations)

	var (
		events   streamHeap
		seq      int
		now      float64
		queues   = make([][]int, m)
		busy     = make([]int, m)
		active   int // tasks inside the network
		backlog  int // tasks arrived but not yet admitted
		inSystem int
		departed int
		taskID   int
		arrived  int   // open: jobs arrived so far
		oldest   []int // closed: FIFO remaining-task counts per outstanding job
	)
	res := &StreamResult{TasksAt: make([]float64, len(cfg.Probes))}
	probeIdx := 0

	servers := func(st int) int {
		if net.Stations[st].Kind == statespace.Multi {
			return net.Stations[st].Servers
		}
		return 1
	}
	schedule := func(task, st int) {
		seq++
		heap.Push(&events, streamEvent{
			time: now + net.Stations[st].Service.Sample(rng),
			seq:  seq, kind: evService, task: task, station: st,
		})
	}
	arrive := func(task, st int) {
		switch net.Stations[st].Kind {
		case statespace.Delay:
			schedule(task, st)
		case statespace.Queue, statespace.Multi:
			if busy[st] >= servers(st) {
				queues[st] = append(queues[st], task)
			} else {
				busy[st]++
				schedule(task, st)
			}
		}
	}
	admit := func() {
		task := taskID
		taskID++
		active++
		arrive(task, sampleIndex(rng, net.Entry))
	}
	submitJob := func() {
		inSystem += cfg.JobTasks
		backlog += cfg.JobTasks
		for active < cfg.K && backlog > 0 {
			backlog--
			admit()
		}
		if !open {
			oldest = append(oldest, cfg.JobTasks)
		}
	}
	scheduleThink := func() {
		seq++
		heap.Push(&events, streamEvent{
			time: now + cfg.Think.Sample(rng),
			seq:  seq, kind: evThink,
		})
	}

	if open {
		// Job 1 arrives at t = 0; later arrivals renew from each other.
		arrived = 1
		submitJob()
		if arrived < cfg.Jobs {
			seq++
			heap.Push(&events, streamEvent{
				time: cfg.Arrival.Sample(rng), seq: seq, kind: evArrival,
			})
		}
	} else {
		for c := 0; c < cfg.Customers; c++ {
			scheduleThink()
		}
	}

	total := cfg.Jobs * cfg.JobTasks
	done := func() bool {
		if open {
			return departed == total && probeIdx == len(cfg.Probes)
		}
		return probeIdx == len(cfg.Probes)
	}
	processed := 0
	for !done() {
		if processed%cancelCheckInterval == 0 {
			if err := check.Canceled(ctx); err != nil {
				return nil, err
			}
		}
		if cfg.MaxEvents > 0 && processed >= cfg.MaxEvents {
			return nil, fmt.Errorf("sim: stream: %d events processed without finishing (tasks may never exit): %w",
				processed, check.ErrNotConverged)
		}
		processed++
		if events.Len() == 0 {
			if open && departed == total {
				// Drained: the remaining probes see an empty system.
				for ; probeIdx < len(cfg.Probes); probeIdx++ {
					res.TasksAt[probeIdx] = 0
				}
				break
			}
			return nil, check.Invalid("sim: stream: event list empty before the run finished (deadlocked network?)")
		}
		ev := heap.Pop(&events).(streamEvent)
		// The system is piecewise constant: record every probe that
		// falls strictly before the next event.
		for probeIdx < len(cfg.Probes) && cfg.Probes[probeIdx] < ev.time {
			res.TasksAt[probeIdx] = float64(inSystem)
			probeIdx++
		}
		now = ev.time

		switch ev.kind {
		case evArrival:
			arrived++
			submitJob()
			if arrived < cfg.Jobs {
				seq++
				heap.Push(&events, streamEvent{
					time: now + cfg.Arrival.Sample(rng), seq: seq, kind: evArrival,
				})
			}
		case evThink:
			submitJob()
		case evService:
			st := ev.station
			if k := net.Stations[st].Kind; k == statespace.Queue || k == statespace.Multi {
				if len(queues[st]) > 0 {
					next := queues[st][0]
					queues[st] = queues[st][1:]
					schedule(next, st)
				} else {
					busy[st]--
				}
			}
			dst, exits := sampleRoute(rng, net, st)
			if !exits {
				arrive(ev.task, dst)
				continue
			}
			active--
			inSystem--
			departed++
			if backlog > 0 {
				backlog--
				admit()
			}
			if open {
				if departed == total {
					res.Drain = now
				}
			} else {
				// FIFO attribution: the departure is charged to the
				// oldest outstanding job; its customer rejoins thinking.
				oldest[0]--
				if oldest[0] == 0 {
					oldest = oldest[1:]
					scheduleThink()
				}
			}
		}
	}
	return res, nil
}

// StreamReplicated aggregates independent stream replications with
// normal-theory standard errors per probe and on the drain time.
type StreamReplicated struct {
	Reps      int
	MeanTasks []float64 // mean tasks-in-system per probe
	TasksSE   []float64 // standard error of each MeanTasks entry
	MeanDrain float64   // open mode only
	DrainSE   float64
	Drains    []float64 // per-replication drain times, seed order
}

// ReplicateStream runs reps independent replications (seeds Seed,
// Seed+1, …) across all CPUs. Deterministic per (Seed, reps).
func ReplicateStream(cfg StreamConfig, reps int) (*StreamReplicated, error) {
	return ReplicateStreamCtx(context.Background(), cfg, reps)
}

// ReplicateStreamCtx is ReplicateStream under a context.
func ReplicateStreamCtx(ctx context.Context, cfg StreamConfig, reps int) (*StreamReplicated, error) {
	if reps < 2 {
		return nil, check.Invalid("sim: stream: need at least 2 replications, got %d", reps)
	}
	np := len(cfg.Probes)
	tasks := make([][]float64, reps)
	drains := make([]float64, reps)
	err := par.ForErr(ctx, reps, func(r int) error {
		c := cfg
		c.Seed = cfg.Seed + int64(r)
		res, err := RunStreamCtx(ctx, c)
		if err != nil {
			return err
		}
		tasks[r] = res.TasksAt
		drains[r] = res.Drain
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &StreamReplicated{
		Reps:      reps,
		MeanTasks: make([]float64, np),
		TasksSE:   make([]float64, np),
	}
	for p := 0; p < np; p++ {
		col := make([]float64, reps)
		for r := 0; r < reps; r++ {
			col[r] = tasks[r][p]
		}
		out.MeanTasks[p], out.TasksSE[p] = meanSE(col)
	}
	if cfg.Jobs > 0 {
		out.MeanDrain, out.DrainSE = meanSE(drains)
		out.Drains = drains
	}
	return out, nil
}

// meanSE returns the sample mean and its standard error.
func meanSE(xs []float64) (mean, se float64) {
	n := float64(len(xs))
	for _, v := range xs {
		mean += v
	}
	mean /= n
	var ss float64
	for _, v := range xs {
		ss += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}
