package multiclass

import (
	"context"
	"math/rand"

	"finwl/internal/sim"
	"finwl/internal/statespace"
)

// Simulate runs one discrete-event replication of the multiclass
// workload with the exact semantics of the analytic model: ROS
// queues, policy-driven admission, immediate replacement. It returns
// the job completion time.
func Simulate(cfg *Config, w Workload, seed int64) (float64, error) {
	sc, err := cfg.simConfig(w, seed)
	if err != nil {
		return 0, err
	}
	return sim.RunClasses(context.Background(), sc)
}

// Replicate averages Simulate over seeds seed..seed+reps−1, run in
// parallel, and returns the mean and its 95% CI half-width.
func Replicate(cfg *Config, w Workload, seed int64, reps int) (mean, ci float64, err error) {
	sc, err := cfg.simConfig(w, seed)
	if err != nil {
		return 0, 0, err
	}
	return sim.ReplicateClasses(context.Background(), sc, reps)
}

// simConfig validates cfg and w and hands the simulator the model's
// laws as hooks: exponential service at the per-class rates, per-class
// routing, and w's admission policy.
func (cfg *Config) simConfig(w Workload, seed int64) (sim.ClassConfig, error) {
	if err := cfg.Validate(); err != nil {
		return sim.ClassConfig{}, err
	}
	if _, err := w.validate(cfg.Classes); err != nil {
		return sim.ClassConfig{}, err
	}
	m := len(cfg.Stations)
	kinds := make([]statespace.Kind, m)
	for st, s := range cfg.Stations {
		kinds[st] = s.Kind
	}
	return sim.ClassConfig{
		Kinds:  kinds,
		Entry:  cfg.Entry,
		Counts: w.Counts,
		K:      w.K,
		Seed:   seed,
		Service: func(rng *rand.Rand, st, class int) float64 {
			return rng.ExpFloat64() / cfg.Rates[st][class]
		},
		Route: func(rng *rand.Rand, st, class int) (int, bool) {
			u := rng.Float64()
			cum := cfg.Exit[class][st]
			if u < cum {
				return 0, true
			}
			for j := 0; j < m; j++ {
				cum += cfg.Route[class].At(st, j)
				if u < cum {
					return j, false
				}
			}
			return m - 1, false // round-off tail
		},
		Pick: w.Policy.pick,
	}, nil
}

// pick draws the class of the next admitted task from the per-class
// queued counts, at least one of which is positive.
func (p Policy) pick(rng *rand.Rand, queued []int) int {
	if p == PriorityOrder {
		for c, q := range queued {
			if q > 0 {
				return c
			}
		}
	}
	total := 0
	for _, q := range queued {
		total += q
	}
	u := rng.Intn(total)
	for c, q := range queued {
		if u < q {
			return c
		}
		u -= q
	}
	return len(queued) - 1 // unreachable while a task is queued
}
