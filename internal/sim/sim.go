// Package sim is a discrete-event simulator for the finite-workload
// cluster networks. It implements the same stochastic model as the
// analytic packages — phase-type service, delay and FCFS queue
// stations, probabilistic routing, immediate replacement from the
// task queue — by sampling instead of solving, and provides
// replication with confidence intervals. The paper validates its
// model by simulation; this package plays that role here, and the
// integration tests require the analytic and simulated results to
// agree within the CI.
package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"finwl/internal/check"
	"finwl/internal/network"
	"finwl/internal/par"
	"finwl/internal/statespace"
)

// cancelCheckInterval is how many events the DES processes between
// context polls: frequent enough that a cancel lands within
// microseconds, rare enough to stay invisible in the event loop cost.
const cancelCheckInterval = 1024

// Config describes one simulation scenario.
type Config struct {
	Net  *network.Network
	K    int   // maximum number of concurrently active tasks
	N    int   // total tasks in the workload
	Seed int64 // RNG seed; runs are deterministic per seed

	// Samplers optionally overrides the service-time sampler of
	// individual stations (indexed like Net.Stations; nil entries use
	// the station's phase-type law). This enables trace-driven
	// simulation with laws that are not phase-type at all — e.g. true
	// Pareto service — to quantify what a PH fit loses.
	Samplers []func(*rand.Rand) float64

	// MaxEvents optionally bounds the number of events one replication
	// may process (0 = unlimited). A structurally valid network whose
	// tasks rarely (or never) exit would otherwise simulate forever;
	// with a budget, the run fails with a check.ErrNotConverged-matching
	// error instead.
	MaxEvents int
}

// RunResult is the outcome of a single replication.
type RunResult struct {
	// Departures holds the task completion times in completion order.
	Departures []float64
	// Total is the completion time of the last task.
	Total float64
}

// event is a pending service completion.
type event struct {
	time    float64
	seq     int // tie-break for determinism
	task    int
	station int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Run simulates one replication.
func Run(cfg Config) (*RunResult, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run under a context: the event loop polls ctx every
// cancelCheckInterval events and returns a check.ErrCanceled-matching
// error when canceled, so even a pathologically long replication can
// be abandoned promptly.
func RunCtx(ctx context.Context, cfg Config) (*RunResult, error) {
	if cfg.Net == nil {
		return nil, check.Invalid("sim: nil network")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if cfg.K < 1 || cfg.N < 1 {
		return nil, check.Invalid("sim: K=%d N=%d, want both >= 1", cfg.K, cfg.N)
	}
	net := cfg.Net
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := len(net.Stations)

	var (
		events   eventHeap
		seq      int
		now      float64
		queues   = make([][]int, m) // waiting tasks at queue/multi stations
		busy     = make([]int, m)   // busy servers at queue/multi stations
		started  = 0                // tasks admitted so far
		departed []float64
	)

	servers := func(st int) int {
		if net.Stations[st].Kind == statespace.Multi {
			return net.Stations[st].Servers
		}
		return 1
	}

	sampleService := func(st int) float64 {
		if cfg.Samplers != nil && st < len(cfg.Samplers) && cfg.Samplers[st] != nil {
			return cfg.Samplers[st](rng)
		}
		return net.Stations[st].Service.Sample(rng)
	}

	schedule := func(task, st int) {
		seq++
		heap.Push(&events, event{
			time:    now + sampleService(st),
			seq:     seq,
			task:    task,
			station: st,
		})
	}

	// arrive places a task at a station.
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

	// enter admits a fresh task from the workload queue.
	enter := func() {
		task := started
		started++
		arrive(task, sampleIndex(rng, net.Entry))
	}

	for i := 0; i < cfg.K && i < cfg.N; i++ {
		enter()
	}

	processed := 0
	for len(departed) < cfg.N {
		if processed%cancelCheckInterval == 0 {
			if err := check.Canceled(ctx); err != nil {
				return nil, err
			}
		}
		if cfg.MaxEvents > 0 && processed >= cfg.MaxEvents {
			return nil, fmt.Errorf("sim: %d of %d tasks done after %d events (tasks may never exit): %w",
				len(departed), cfg.N, processed, check.ErrNotConverged)
		}
		processed++
		if events.Len() == 0 {
			return nil, check.Invalid("sim: event list empty before workload finished (deadlocked network?)")
		}
		ev := heap.Pop(&events).(event)
		now = ev.time
		st := ev.station

		// Free the server and start the next waiting task, if any.
		if k := net.Stations[st].Kind; k == statespace.Queue || k == statespace.Multi {
			if len(queues[st]) > 0 {
				next := queues[st][0]
				queues[st] = queues[st][1:]
				schedule(next, st)
			} else {
				busy[st]--
			}
		}

		// Route the completing task.
		dst, exits := sampleRoute(rng, net, st)
		if exits {
			departed = append(departed, now)
			if started < cfg.N {
				enter()
			}
			continue
		}
		arrive(ev.task, dst)
	}
	return &RunResult{Departures: departed, Total: departed[len(departed)-1]}, nil
}

// sampleIndex draws an index from a probability vector.
func sampleIndex(rng *rand.Rand, pmf []float64) int {
	u := rng.Float64()
	var cum float64
	for i, p := range pmf {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(pmf) - 1
}

// sampleRoute draws the routing outcome after service at station st.
func sampleRoute(rng *rand.Rand, net *network.Network, st int) (dst int, exits bool) {
	u := rng.Float64()
	cum := net.Exit[st]
	if u < cum {
		return 0, true
	}
	for j := 0; j < len(net.Stations); j++ {
		cum += net.Route.At(st, j)
		if u < cum {
			return j, false
		}
	}
	// Round-off tail: send to the last station with non-zero routing.
	for j := len(net.Stations) - 1; j >= 0; j-- {
		if net.Route.At(st, j) > 0 {
			return j, false
		}
	}
	return 0, true
}

// Replicated aggregates independent replications.
type Replicated struct {
	Reps       int
	MeanTotal  float64
	TotalCI95  float64   // half-width of the 95% CI on MeanTotal
	MeanEpochs []float64 // mean inter-departure time per epoch index
	MeanDeps   []float64 // mean departure time per epoch index
	Totals     []float64 // per-replication completion times, in seed order
}

// TotalQuantile returns the empirical p-quantile of the completion
// time across replications.
func (r *Replicated) TotalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("sim: quantile %v outside (0,1)", p))
	}
	sorted := append([]float64(nil), r.Totals...)
	sort.Float64s(sorted)
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Replicate runs reps independent replications (seeds Seed, Seed+1, …)
// across all CPUs and aggregates totals and per-epoch means with a
// normal-theory 95% confidence interval on the total. Results are
// deterministic for a given (Seed, reps): each replication's RNG
// depends only on its own seed, so the partitioning over workers
// cannot change the outcome.
func Replicate(cfg Config, reps int) (*Replicated, error) {
	return ReplicateCtx(context.Background(), cfg, reps)
}

// ReplicateCtx is Replicate under a context. The replication fan-out
// runs through par.ForErr, so cancellation stops claiming new
// replications (and in-flight ones observe ctx inside RunCtx), every
// worker goroutine has exited before it returns, and a worker panic
// comes back as a wrapped error instead of killing the process.
func ReplicateCtx(ctx context.Context, cfg Config, reps int) (*Replicated, error) {
	if reps < 2 {
		return nil, check.Invalid("sim: need at least 2 replications, got %d", reps)
	}
	totals := make([]float64, reps)
	deps := make([][]float64, reps) // per-replicate slots, reduced in index order
	err := par.ForErr(ctx, reps, func(r int) error {
		c := cfg
		c.Seed = cfg.Seed + int64(r)
		res, err := RunCtx(ctx, c)
		if err != nil {
			return err
		}
		totals[r] = res.Total
		deps[r] = res.Departures
		return nil
	})
	if err != nil {
		return nil, err
	}
	epochSums := make([]float64, cfg.N)
	depSums := make([]float64, cfg.N)
	for _, ds := range deps {
		prev := 0.0
		for i, d := range ds {
			epochSums[i] += d - prev
			depSums[i] += d
			prev = d
		}
	}
	var mean, ss float64
	for _, v := range totals {
		mean += v
	}
	mean /= float64(reps)
	for _, v := range totals {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / float64(reps-1))
	out := &Replicated{
		Reps:       reps,
		MeanTotal:  mean,
		TotalCI95:  1.96 * sd / math.Sqrt(float64(reps)),
		MeanEpochs: epochSums,
		MeanDeps:   depSums,
		Totals:     totals,
	}
	for i := range out.MeanEpochs {
		out.MeanEpochs[i] /= float64(reps)
		out.MeanDeps[i] /= float64(reps)
	}
	return out, nil
}
