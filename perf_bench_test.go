// Root performance harness: the BenchmarkPerf* benchmarks track the
// solver's hot paths — chain construction + factorization, the
// allocation-free epoch kernels, incremental N-sweeps, and the
// serving path's split E(T) — so
// every PR leaves a comparable perf trajectory. scripts/bench.sh runs
// them and snapshots the results into BENCH_<n>.json.
package finwl_test

import (
	"context"
	"runtime"
	"testing"

	"finwl/internal/cluster"
	"finwl/internal/core"
	"finwl/internal/workload"
)

func perfNet(b *testing.B, k int) *core.Solver {
	b.Helper()
	app := workload.Default(30)
	net, err := cluster.Central(k, app, cluster.Dists{Remote: cluster.WithCV2(10)}, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.NewSolver(net, k)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// Chain construction + per-level LU factorization, parallel (default
// GOMAXPROCS) versus serial (GOMAXPROCS=1). On a multi-core host the
// parallel variant shows the worker-pool speedup; on one core the two
// coincide. Every iteration after the first finds the chain's shape in
// network's memo, so these measure the warm-shape case: the numeric
// phase only (value replay and refactorization into the memoized LU
// patterns). internal/network's BenchmarkPerfNewSolverK8H2ShapeCold
// measures the same build with the memo emptied before each one.
func benchPerfConstruct(b *testing.B, procs int) {
	if procs > 0 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
	}
	app := workload.Default(30)
	net, err := cluster.Central(8, app, cluster.Dists{Remote: cluster.WithCV2(10)}, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSolver(net, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerfNewSolverK8H2(b *testing.B)       { benchPerfConstruct(b, 0) }
func BenchmarkPerfNewSolverK8H2Serial(b *testing.B) { benchPerfConstruct(b, 1) }

// One transient pass at N=400 on the K=8 H2 chain: the epoch loop
// must stay O(1) in allocations however large N grows.
func BenchmarkPerfSolveN400K8(b *testing.B) {
	s := perfNet(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(400); err != nil {
			b.Fatal(err)
		}
	}
}

// E(T) at N=1250 on the K=8 H2 chain through the serving path: the
// forward and backward halves of SplitTotalTimeCtx, which run on two
// cores when GOMAXPROCS allows.
func BenchmarkPerfTotalTimeN1250K8H2(b *testing.B) {
	s := perfNet(b, 8)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SplitTotalTimeCtx(ctx, 1250); err != nil {
			b.Fatal(err)
		}
	}
}

func perfSweepNs() []int {
	ns := make([]int, 100)
	for i := range ns {
		ns[i] = 8 + 4*i
	}
	return ns
}

// A 100-point N-sweep via the incremental SolveSweep pass …
func BenchmarkPerfSolveSweep100(b *testing.B) {
	s := perfNet(b, 8)
	ns := perfSweepNs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveSweep(ns); err != nil {
			b.Fatal(err)
		}
	}
}

// … against the same sweep as 100 independent Solve calls.
func BenchmarkPerfRepeatedSolve100(b *testing.B) {
	s := perfNet(b, 8)
	ns := perfSweepNs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range ns {
			if _, err := s.Solve(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Steady state of the K=8 H2 chain (direct solve at this size).
func BenchmarkPerfSteadyStateK8(b *testing.B) {
	s := perfNet(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SteadyState(); err != nil {
			b.Fatal(err)
		}
	}
}

// One /solve's worth of work on the paper's distributed cluster at
// K=6 with CV² 10 disks, N=30: warm-shape chain build, level
// factorization and the split E(T). The six exchangeable disks lump
// the chain to 281 states at level 6 (14,407 unlumped, which the chain
// budget refuses).
func BenchmarkPerfSolveDistributedK6H2(b *testing.B) {
	net, err := cluster.Distributed(6, workload.Default(30), cluster.Dists{Remote: cluster.WithCV2(10)})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.NewSolver(net, 6)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SplitTotalTimeCtx(ctx, 30); err != nil {
			b.Fatal(err)
		}
	}
}
