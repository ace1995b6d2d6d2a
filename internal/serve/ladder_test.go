package serve

import (
	"context"
	"testing"
	"time"

	"finwl/internal/core"
	"finwl/internal/obs"
)

// TestSelectTierTable is the issue-mandated matrix: the fidelity the
// ladder picks for every (remaining deadline, breaker state, cached
// solver) combination, against fixed cost estimates of exact = 100ms,
// checkpoint = 12ms, steady = 2ms.
func TestSelectTierTable(t *testing.T) {
	est := estimates{
		exact:      100 * time.Millisecond,
		checkpoint: 12 * time.Millisecond,
		steady:     2 * time.Millisecond,
	}
	cases := []struct {
		name        string
		breakerOpen bool
		haveSolver  bool
		remaining   time.Duration
		want        Fidelity
	}{
		// Closed breaker, cold solver cache: deadline picks the rung.
		{"closed/cold/no-deadline", false, false, noDeadline, FidelityExact},
		{"closed/cold/ample", false, false, time.Second, FidelityExact},
		{"closed/cold/exact-boundary", false, false, 100 * time.Millisecond, FidelityExact},
		{"closed/cold/below-exact", false, false, 99 * time.Millisecond, FidelitySteady},
		{"closed/cold/below-steady", false, false, time.Millisecond, FidelityBounds},
		{"closed/cold/zero", false, false, 0, FidelityBounds},

		// Closed breaker, warm solver: checkpoint preferred whenever it
		// fits — even when exact would too (same numbers, cheaper).
		{"closed/warm/no-deadline", false, true, noDeadline, FidelityCheckpoint},
		{"closed/warm/ample", false, true, time.Second, FidelityCheckpoint},
		{"closed/warm/between", false, true, 50 * time.Millisecond, FidelityCheckpoint},
		{"closed/warm/below-checkpoint", false, true, 5 * time.Millisecond, FidelitySteady},
		{"closed/warm/below-steady", false, true, time.Millisecond, FidelityBounds},

		// Open breaker: the exact tiers are short-circuited no matter
		// how much deadline or cache is available.
		{"open/cold/no-deadline", true, false, noDeadline, FidelitySteady},
		{"open/warm/no-deadline", true, true, noDeadline, FidelitySteady},
		{"open/warm/ample", true, true, time.Second, FidelitySteady},
		{"open/cold/below-steady", true, false, time.Millisecond, FidelityBounds},
		{"open/warm/zero", true, true, 0, FidelityBounds},
	}
	for _, tc := range cases {
		if got := selectTier(tc.breakerOpen, tc.haveSolver, tc.remaining, est); got != tc.want {
			t.Errorf("%s: selectTier = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestRungBelow(t *testing.T) {
	order := map[Fidelity]Fidelity{
		FidelityExact:      FidelitySteady,
		FidelityCheckpoint: FidelitySteady,
		FidelitySteady:     FidelityBounds,
		FidelityBounds:     FidelityBounds, // floor
	}
	for from, want := range order {
		if got := rungBelow(from); got != want {
			t.Errorf("rungBelow(%s) = %s, want %s", from, got, want)
		}
	}
}

func TestEstimatorLearns(t *testing.T) {
	e := newEstimator(50, 0.125, float64(2*time.Millisecond), 256)
	const class, price = "c", int64(1000)

	cold := e.estimate(class, price)
	if cold.exact != 50*1000 {
		t.Fatalf("cold exact estimate = %v, want 50µs", cold.exact)
	}
	if cold.steady != 2*time.Millisecond {
		t.Fatalf("cold steady estimate = %v, want 2ms", cold.steady)
	}

	// Observe solves 10× slower than the seed; the EWMA must move
	// toward them, and an unrelated class must be untouched.
	for i := 0; i < 20; i++ {
		e.observe(class, FidelityExact, price, 500*1000)
	}
	warm := e.estimate(class, price)
	if warm.exact <= 2*cold.exact {
		t.Fatalf("exact estimate %v barely moved from %v after 20 slow observations", warm.exact, cold.exact)
	}
	other := e.estimate("other", price)
	if other.exact != cold.exact {
		t.Fatalf("unrelated class drifted: %v, want %v", other.exact, cold.exact)
	}

	// Degenerate observations are ignored.
	e.observe(class, FidelityExact, 0, time.Second)
	e.observe(class, FidelityExact, price, 0)
	if e.estimate(class, price) != warm {
		t.Fatal("zero-price or zero-duration observation moved the estimate")
	}
}

// Both exact rungs answer with core's split E(T): a fresh solver
// serves exact, a cached one checkpoint, each with the split value,
// N epochs and its own label, and both count in finwl_solves_total,
// never in finwl_sweep_checkpoints_total.
func TestExactRungsServeSplitTotalTime(t *testing.T) {
	ctx := context.Background()
	net, err := (&Request{Arch: "central", K: 5, N: 200}).BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewSolver(net, 5)
	if err != nil {
		t.Fatal(err)
	}
	solves := obs.Default.Counter("finwl_solves_total", "")
	checkpoints := obs.Default.Counter("finwl_sweep_checkpoints_total", "")
	solves0, checkpoints0 := solves.Value(), checkpoints.Value()
	s := New(Config{Seed: 1})
	cases := []struct {
		n    int
		want Fidelity
	}{{200, FidelityExact}, {201, FidelityCheckpoint}, {3, FidelityCheckpoint}}
	for _, tc := range cases {
		resp, err := s.Solve(ctx, &Request{Arch: "central", K: 5, N: tc.n})
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		want, err := ref.SplitTotalTimeCtx(ctx, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Fidelity != tc.want || resp.TotalTime != want || resp.Epochs != tc.n {
			t.Errorf("n=%d: fidelity %s, E(T) %v, epochs %d; want %s, %v, %d",
				tc.n, resp.Fidelity, resp.TotalTime, resp.Epochs, tc.want, want, tc.n)
		}
	}
	// The reference solver above counted its own three answers.
	if got := solves.Value() - solves0; got != 2*int64(len(cases)) {
		t.Errorf("finwl_solves_total moved by %d, want %d", got, 2*len(cases))
	}
	if got := checkpoints.Value() - checkpoints0; got != 0 {
		t.Errorf("finwl_sweep_checkpoints_total moved by %d, want 0", got)
	}
}
