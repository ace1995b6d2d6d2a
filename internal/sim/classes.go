// Multiclass simulation: tasks of several classes, each with its own
// service, routing and entry laws, and an admission policy choosing
// which queued class replaces a departure. multiclass.Simulate is the
// front end; it supplies the laws and the policy as hooks.

package sim

import (
	"context"
	"math"
	"math/rand"

	"finwl/internal/check"
	"finwl/internal/statespace"
)

// ClassConfig describes one multiclass finite workload.
type ClassConfig struct {
	// Kinds gives each station's kind: Delay, or a single-server Queue
	// that serves its waiting tasks in random order (ROS).
	Kinds  []statespace.Kind
	Entry  [][]float64 // entry vector per class
	Counts []int       // tasks per class
	K      int         // at most K tasks inside the network
	Seed   int64

	// Service samples the service time of a class task at station st,
	// Route draws where it goes next (exits: it leaves the network),
	// and Pick draws the class of the next admitted task given the
	// tasks still queued per class. The hooks must be safe to call from
	// concurrent replications; each gets its own rng.
	Service func(rng *rand.Rand, st, class int) float64
	Route   func(rng *rand.Rand, st, class int) (dst int, exits bool)
	Pick    func(rng *rand.Rand, queued []int) int
}

// RunClasses simulates one replication under ctx and returns the
// completion time of the last task. The counts must not be negative,
// and the laws must let every task exit; multiclass.Simulate checks
// both.
func RunClasses(ctx context.Context, cfg ClassConfig) (float64, error) {
	total := 0
	for _, n := range cfg.Counts {
		total += n
	}
	if total < 1 || cfg.K < 1 {
		return 0, check.Invalid("sim: %d tasks with K=%d, want both >= 1", total, cfg.K)
	}
	queued := append([]int(nil), cfg.Counts...)
	k := &kernel{
		servers: make([]int, len(cfg.Kinds)),
		ros:     true,
		service: cfg.Service,
		route:   cfg.Route,
		entry:   cfg.Entry,
		pick: func(rng *rand.Rand) int {
			c := cfg.Pick(rng, queued)
			queued[c]--
			return c
		},
		limit:    cfg.K,
		jobTasks: total,
		jobs:     1,
	}
	for st, kind := range cfg.Kinds {
		k.servers[st] = serverCount(kind, 1)
	}
	if err := k.run(ctx, cfg.Seed); err != nil {
		return 0, err
	}
	return k.drain, nil
}

// ReplicateClasses runs reps independent replications (seeds Seed,
// Seed+1, …) across all CPUs and returns the mean completion time and
// the half-width of its normal-theory 95% confidence interval. Like
// Replicate it is deterministic for a given (Seed, reps).
func ReplicateClasses(ctx context.Context, cfg ClassConfig, reps int) (mean, ci float64, err error) {
	totals, err := replicate(ctx, cfg.Seed, reps, func(seed int64) (float64, error) {
		c := cfg
		c.Seed = seed
		return RunClasses(ctx, c)
	})
	if err != nil {
		return 0, 0, err
	}
	mean, sd := meanSD(totals)
	return mean, 1.96 * sd / math.Sqrt(float64(reps)), nil
}
