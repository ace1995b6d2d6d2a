// Stream simulation: the kernel's job sources, the discrete-event
// counterpart of internal/stream. Jobs of JobTasks tasks arrive while
// earlier ones drain — by a phase-type renewal process (open mode) or
// from a finite pool of customers with phase-type think times (closed
// mode). The sampler draws from exactly the laws the solver embeds
// (the same PH objects, the same FIFO admission and FIFO job
// attribution), so solver vs sim discrepancies measure implementation
// error, not model distance.

package sim

import (
	"context"
	"math"

	"finwl/internal/check"
	"finwl/internal/network"
	"finwl/internal/phase"
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

	Probes    []float64 // times at which tasks-in-system is recorded; finite, >= 0
	Seed      int64
	MaxEvents int // 0 = unlimited
}

// StreamResult is one replication's outcome.
type StreamResult struct {
	TasksAt []float64 // tasks in system at each probe time
	Drain   float64   // open mode: time of the last departure
}

// RunStream simulates one replication.
func RunStream(cfg StreamConfig) (*StreamResult, error) {
	return RunStreamCtx(context.Background(), cfg)
}

// RunStreamCtx is RunStream under a context, polled every
// cancelCheckInterval events.
func RunStreamCtx(ctx context.Context, cfg StreamConfig) (*StreamResult, error) {
	k, err := netKernel(cfg.Net, nil, cfg.K, cfg.JobTasks)
	if err != nil {
		return nil, err
	}
	// Exactly one source: open (Jobs + Arrival) or closed (Customers +
	// Think), each complete.
	open := cfg.Jobs > 0 || cfg.Arrival != nil
	if open == (cfg.Customers > 0 || cfg.Think != nil) {
		return nil, check.Invalid("sim: stream: configure exactly one of open (Jobs + Arrival) and closed (Customers + Think) mode")
	}
	n, law := cfg.Customers, cfg.Think
	if open {
		n, law = cfg.Jobs, cfg.Arrival
	}
	if n < 1 || law == nil {
		return nil, check.Invalid("sim: stream: open mode needs Jobs >= 1 and an Arrival law, closed mode Customers >= 1 and a Think law")
	}
	if err := law.Validate(); err != nil {
		return nil, err
	}
	// A probe that is never strictly before an event (NaN, +Inf) would
	// keep a closed run waiting for it until MaxEvents, forever at 0.
	for i, t := range cfg.Probes {
		if err := check.Finite("sim: stream: probe time", t); err != nil {
			return nil, err
		}
		if t < 0 {
			return nil, check.Invalid("sim: stream: probe %d time %v, want >= 0", i, t)
		}
	}
	k.jobs, k.arrival, k.customers, k.think = cfg.Jobs, cfg.Arrival, cfg.Customers, cfg.Think
	k.probes, k.maxEvents = cfg.Probes, cfg.MaxEvents
	if err := k.run(ctx, cfg.Seed); err != nil {
		return nil, err
	}
	return &StreamResult{TasksAt: k.tasksAt, Drain: k.drain}, nil
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
	runs, err := replicate(ctx, cfg.Seed, reps, func(seed int64) (*StreamResult, error) {
		c := cfg
		c.Seed = seed
		return RunStreamCtx(ctx, c)
	})
	if err != nil {
		return nil, err
	}
	out := &StreamReplicated{Reps: reps}
	out.MeanTasks, out.TasksSE = columns(runs, len(cfg.Probes), func(res *StreamResult, i int) float64 { return res.TasksAt[i] })
	for i := range out.TasksSE {
		out.TasksSE[i] /= math.Sqrt(float64(reps))
	}
	if cfg.Jobs > 0 {
		out.Drains = make([]float64, reps)
		for r, res := range runs {
			out.Drains[r] = res.Drain
		}
		out.MeanDrain, out.DrainSE = meanSD(out.Drains)
		out.DrainSE /= math.Sqrt(float64(reps))
	}
	return out, nil
}
