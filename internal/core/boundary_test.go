package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"finwl/internal/check"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// twoStationNet is a small central-server-style network used by the
// boundary tests: a delay CPU feeding an FCFS disk.
func twoStationNet(pDisk float64) *network.Network {
	route := matrix.New(2, 2)
	route.Set(0, 1, pDisk)
	route.Set(1, 0, 1)
	return &network.Network{
		Stations: []network.Station{
			{Name: "cpu", Kind: statespace.Delay, Service: phase.MustExpo(2)},
			{Name: "disk", Kind: statespace.Queue, Service: phase.MustExpo(5)},
		},
		Route: route,
		Exit:  []float64{1 - pDisk, 0},
		Entry: []float64{1, 0},
	}
}

// K=1 is the degenerate population: no contention, every task walks
// the network alone, so E(T) is N times the solo response time.
func TestPopulationOne(t *testing.T) {
	s := mustSolver(t, twoStationNet(0.4), 1)
	solo, err := s.TotalTime(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 5, 9} {
		got, err := s.TotalTime(n)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, got, float64(n)*solo, 1e-9, "E(T) at K=1")
	}
}

// N=K skips the feeding pass entirely: the run is pure drain, with
// exactly K epochs.
func TestWorkloadEqualsPopulation(t *testing.T) {
	const k = 4
	s := mustSolver(t, twoStationNet(0.4), k)
	r, err := s.Solve(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Epochs) != k {
		t.Fatalf("N=K run has %d epochs, want %d", len(r.Epochs), k)
	}
	// The sweep path must agree with the direct path at the boundary.
	sw, err := s.SolveSweep([]int{k})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, sw[0].TotalTime, r.TotalTime, 1e-12, "sweep vs direct at N=K")
}

// A zero-probability routing edge must behave exactly like an absent
// edge: the disk branch with p=0 reduces to the CPU-only model.
func TestZeroProbabilityRouting(t *testing.T) {
	withEdge := mustSolver(t, twoStationNet(0), 3)
	solo := mustSolver(t, singleStation(statespace.Delay, phase.MustExpo(2)), 3)
	for _, n := range []int{1, 3, 8} {
		a, err := withEdge.TotalTime(n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := solo.TotalTime(n)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, a, b, 1e-9, "zero-probability edge")
	}
}

// A single-phase Erlang is exactly an exponential; the solver must not
// care which constructor produced the distribution.
func TestSinglePhaseErlang(t *testing.T) {
	erl, err := phase.ErlangMean(1, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	a := mustSolver(t, singleStation(statespace.Queue, erl), 3)
	b := mustSolver(t, singleStation(statespace.Queue, phase.MustExpo(1/0.7)), 3)
	ra, err := a.Solve(6)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Solve(6)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ra.TotalTime, rb.TotalTime, 1e-9, "Erlang-1 vs Expo")
}

// SolveSweep on an empty grid is a no-op, and on a singleton grid it
// must agree with Solve.
func TestSolveSweepEmptyAndSingleton(t *testing.T) {
	s := mustSolver(t, twoStationNet(0.4), 3)
	empty, err := s.SolveSweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("empty sweep returned %d results", len(empty))
	}
	one, err := s.SolveSweep([]int{7})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.Solve(7)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, one[0].TotalTime, direct.TotalTime, 1e-12, "singleton sweep vs direct")
}

// A canceled context must surface as check.ErrCanceled (and as
// context.Canceled) from every solve entry point, promptly.
func TestSolveCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := mustSolver(t, twoStationNet(0.4), 3)

	if _, err := s.SolveCtx(ctx, 50); !errors.Is(err, check.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveCtx: %v, want ErrCanceled matching context.Canceled", err)
	}
	if _, err := s.SolveSweepCtx(ctx, []int{10, 50}); !errors.Is(err, check.ErrCanceled) {
		t.Fatalf("SolveSweepCtx: %v, want ErrCanceled", err)
	}
	if _, _, err := s.SteadyStateCtx(ctx); !errors.Is(err, check.ErrCanceled) {
		t.Fatalf("SteadyStateCtx: %v, want ErrCanceled", err)
	}
	if _, err := NewSolverCtx(ctx, twoStationNet(0.4), 3); !errors.Is(err, check.ErrCanceled) {
		t.Fatalf("NewSolverCtx: %v, want ErrCanceled", err)
	}
}

// An expired deadline matches both check.ErrCanceled and
// context.DeadlineExceeded, so callers can branch on either.
func TestSolveDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s := mustSolver(t, twoStationNet(0.4), 3)
	_, err := s.SolveSweepCtx(ctx, []int{40})
	if !errors.Is(err, check.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrCanceled matching DeadlineExceeded", err)
	}
}

// A sparse-factored solver honours the workload boundaries (N < K,
// N = K, N > K) against the dense reference, and the cancellation
// contract.
func TestSparseBoundariesAndCancel(t *testing.T) {
	s := sparseFactoredSolver(t, 3)
	ref := newDenseRef(t, s.Chain)
	for _, n := range []int{1, 3, 7} {
		rs, err := s.Solve(n)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, e := range ref.solve(t, n) {
			want += e
		}
		approx(t, rs.TotalTime, want, 1e-12, "sparse-factored vs dense reference")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveCtx(ctx, 50); !errors.Is(err, check.ErrCanceled) {
		t.Fatalf("SolveCtx: %v, want ErrCanceled", err)
	}
}
