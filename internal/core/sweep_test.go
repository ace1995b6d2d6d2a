package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"finwl/internal/check"
	"finwl/internal/cluster"
	"finwl/internal/workload"
)

// SolveSweep and Solve must reproduce the per-workload reference
// recursion bit for bit: the shared feeding pass runs the same kernels
// and sums in the same order as a standalone solve.
func TestSolveSweepMatchesSolve(t *testing.T) {
	cases := []struct {
		name  string
		dists cluster.Dists
		k     int
		ns    []int
	}{
		// Unsorted with duplicates, spanning N < K, N = K and N ≫ K.
		{"exponential", cluster.Dists{}, 4, []int{50, 2, 4, 200, 4, 1, 3, 120, 50}},
		{"erlang3-cpu", cluster.Dists{CPU: cluster.ErlangStages(3)}, 4, []int{1, 4, 3, 80, 10}},
		{"h2-remote-cv10", cluster.Dists{Remote: cluster.WithCV2(10)}, 5, []int{2, 5, 150, 5, 30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app := workload.Default(30)
			net, err := cluster.Central(tc.k, app, tc.dists, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSolver(net, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.SolveSweep(tc.ns)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.ns) {
				t.Fatalf("got %d results for %d workloads", len(got), len(tc.ns))
			}
			for i, n := range tc.ns {
				want := refSolve(s, n)
				sameResult(t, got[i], want)
				one, err := s.Solve(n)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, one, want)
			}
		})
	}
}

func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}

func TestSolveSweepRejectsBadWorkload(t *testing.T) {
	app := workload.Default(10)
	net, err := cluster.Central(3, app, cluster.Dists{}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveSweep([]int{5, 0, 7}); err == nil {
		t.Fatal("want error for workload 0")
	}
	if _, err := s.TotalTimeSweep([]int{5, -1}); err == nil {
		t.Fatal("TotalTimeSweep: want error for workload -1")
	}
	if rs, err := s.SolveSweep(nil); err != nil || len(rs) != 0 {
		t.Fatalf("empty sweep: %v, %d results", err, len(rs))
	}
}

func TestTotalTimeSweep(t *testing.T) {
	app := workload.Default(10)
	net, err := cluster.Central(3, app, cluster.Dists{}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	ns := []int{3, 10, 25}
	totals, err := s.TotalTimeSweep(ns)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		want, err := s.TotalTime(n)
		if err != nil {
			t.Fatal(err)
		}
		if !closeRel(totals[i], want, 1e-13) {
			t.Fatalf("N=%d: %v, want %v", n, totals[i], want)
		}
	}
}

// SolveSweepEach must reproduce the reference recursion on every
// healthy workload and confine each bad workload to its own slot: the
// batch scheduler depends on one poisoned job not discarding its group.
func TestSolveSweepEachIsolatesFailures(t *testing.T) {
	app := workload.Default(30)
	net, err := cluster.Central(4, app, cluster.Dists{}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	ns := []int{50, 0, 2, -3, 4, 120, 50}
	bad := map[int]bool{1: true, 3: true}
	results, errs := s.SolveSweepEach(ns)
	if len(results) != len(ns) || len(errs) != len(ns) {
		t.Fatalf("got %d results, %d errs for %d workloads", len(results), len(errs), len(ns))
	}
	for i, n := range ns {
		if bad[i] {
			if !errors.Is(errs[i], check.ErrInvalidModel) {
				t.Fatalf("ns[%d]=%d: err %v, want ErrInvalidModel", i, n, errs[i])
			}
			if results[i] != nil {
				t.Fatalf("ns[%d]=%d: got a result alongside the error", i, n)
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("ns[%d]=%d: unexpected error %v", i, n, errs[i])
		}
		sameResult(t, results[i], refSolve(s, n))
	}
}

// Under a dead context every workload fails typed as canceled — the
// sweep must not return half-filled slots with nil errors.
func TestSolveSweepEachCanceled(t *testing.T) {
	app := workload.Default(10)
	net, err := cluster.Central(3, app, cluster.Dists{}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, errs := s.SolveSweepEachCtx(ctx, []int{2, 5, 20})
	for i := range errs {
		if !errors.Is(errs[i], check.ErrCanceled) {
			t.Fatalf("ns[%d]: err %v, want ErrCanceled", i, errs[i])
		}
		if results[i] != nil {
			t.Fatalf("ns[%d]: got a result from a canceled sweep", i)
		}
	}
}

// Tau must hand back an owned copy: mutating it cannot perturb later
// solves.
func TestTauReturnsDefensiveCopy(t *testing.T) {
	app := workload.Default(10)
	net, err := cluster.Central(3, app, cluster.Dists{}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.TotalTime(10)
	if err != nil {
		t.Fatal(err)
	}
	tau := s.Tau(3)
	for i := range tau {
		tau[i] = -1
	}
	after, err := s.TotalTime(10)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("mutating Tau's result changed TotalTime: %v vs %v", before, after)
	}
}
