// Package sim is a discrete-event simulator for the finite-workload
// cluster networks. It implements the same stochastic model as the
// analytic packages — phase-type service, delay and FCFS queue
// stations, probabilistic routing, immediate replacement from the
// task queue — by sampling instead of solving, and provides
// replication with confidence intervals. The paper validates its
// model by simulation; this package plays that role here, and the
// integration tests require the analytic and simulated results to
// agree within the CI. One event loop (kernel.go) serves the finite
// workload (Run), the job stream (RunStream) and the multiclass
// workload (RunClasses).
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"finwl/internal/check"
	"finwl/internal/network"
)

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

// Run simulates one replication.
func Run(cfg Config) (*RunResult, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run under a context: the event loop polls ctx every
// cancelCheckInterval events and returns a check.ErrCanceled-matching
// error when canceled, so even a pathologically long replication can
// be abandoned promptly.
func RunCtx(ctx context.Context, cfg Config) (*RunResult, error) {
	k, err := netKernel(cfg.Net, cfg.Samplers, cfg.K, cfg.N)
	if err != nil {
		return nil, err
	}
	k.jobs, k.record, k.maxEvents = 1, true, cfg.MaxEvents
	if err := k.run(ctx, cfg.Seed); err != nil {
		return nil, err
	}
	return &RunResult{Departures: k.departures, Total: k.drain}, nil
}

// netKernel validates net and builds its kernel: FIFO stations with
// the network's phase-type service laws, overridden per station by any
// non-nil entry of samplers, admitting jobs of jobTasks tasks up to
// limit at a time.
func netKernel(net *network.Network, samplers []func(*rand.Rand) float64, limit, jobTasks int) (*kernel, error) {
	if net == nil {
		return nil, check.Invalid("sim: nil network")
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if limit < 1 || jobTasks < 1 {
		return nil, check.Invalid("sim: K=%d with %d tasks per job, want both >= 1", limit, jobTasks)
	}
	k := &kernel{
		servers: make([]int, len(net.Stations)),
		entry:   [][]float64{net.Entry},
		service: func(rng *rand.Rand, st, _ int) float64 {
			if st < len(samplers) && samplers[st] != nil {
				return samplers[st](rng)
			}
			return net.Stations[st].Service.Sample(rng)
		},
		route:    func(rng *rand.Rand, st, _ int) (int, bool) { return sampleRoute(rng, net, st) },
		limit:    limit,
		jobTasks: jobTasks,
	}
	for st, s := range net.Stations {
		k.servers[st] = serverCount(s.Kind, s.Servers)
	}
	return k, nil
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
	// Every product is rounded on its own (float64 conversions), so no
	// platform fuses it into the following add or subtract.
	pos := float64(p * float64(len(sorted)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
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
	runs, err := replicate(ctx, cfg.Seed, reps, func(seed int64) (*RunResult, error) {
		c := cfg
		c.Seed = seed
		return RunCtx(ctx, c)
	})
	if err != nil {
		return nil, err
	}
	out := &Replicated{Reps: reps, Totals: make([]float64, reps)}
	for r, res := range runs {
		out.Totals[r] = res.Total
	}
	out.MeanEpochs, _ = columns(runs, cfg.N, func(res *RunResult, i int) float64 {
		if i == 0 {
			return res.Departures[0]
		}
		return res.Departures[i] - res.Departures[i-1]
	})
	out.MeanDeps, _ = columns(runs, cfg.N, func(res *RunResult, i int) float64 { return res.Departures[i] })
	var sd float64
	out.MeanTotal, sd = meanSD(out.Totals)
	out.TotalCI95 = 1.96 * sd / math.Sqrt(float64(reps))
	return out, nil
}
