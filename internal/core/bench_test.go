package core

import (
	"runtime"
	"testing"

	"finwl/internal/cluster"
	"finwl/internal/workload"
)

func benchNet(b *testing.B, k int, d cluster.Dists) *Solver {
	b.Helper()
	app := workload.Default(30)
	net, err := cluster.Central(k, app, d, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSolver(net, k)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// Building + factoring the chain is the setup cost paid once per
// configuration. The serial/parallel pair measures the worker-pool
// speedup of chain construction and per-level factorization (they
// coincide on a single-core host).
func benchNewSolver(b *testing.B, procs int) {
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
		if _, err := NewSolver(net, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewSolverCentralK8H2(b *testing.B)       { benchNewSolver(b, 0) }
func BenchmarkNewSolverCentralK8H2Serial(b *testing.B) { benchNewSolver(b, 1) }

// One feeding epoch through the public (allocating) API: the per-task
// marginal cost of the transient solution.
func BenchmarkFeedEpochK8(b *testing.B) {
	s := benchNet(b, 8, cluster.Dists{Remote: cluster.WithCV2(10)})
	pi := s.EntryVector(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi = s.Feed(8, pi)
	}
}

// The same epoch through the workspace kernel, as the Solve loop runs
// it: must be 0 allocs/op.
func BenchmarkFeedEpochIntoK8(b *testing.B) {
	s := benchNet(b, 8, cluster.Dists{Remote: cluster.WithCV2(10)})
	ws := s.getWS()
	defer s.putWS(ws)
	d := s.d(8)
	pi := ws.cur[:d]
	copy(pi, s.EntryVector(8))
	out := ws.next[:d]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.EpochTime(8, pi)
		_ = t
		s.feedInto(out, 8, pi, ws)
		pi, out = out, pi
	}
}

// BenchmarkPerfFeedEpochIntoK8 is BenchmarkFeedEpochIntoK8 under the
// Perf harness naming so the CI bench snapshot records it: the epoch
// kernel plus its epoch-counter instrumentation must stay 0 allocs/op
// (the counter bump is one atomic add).
func BenchmarkPerfFeedEpochIntoK8(b *testing.B) {
	s := benchNet(b, 8, cluster.Dists{Remote: cluster.WithCV2(10)})
	ws := s.getWS()
	defer s.putWS(ws)
	d := s.d(8)
	pi := ws.cur[:d]
	copy(pi, s.EntryVector(8))
	out := ws.next[:d]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.EpochTime(8, pi)
		_ = t
		mEpochs.Inc() // what SolveCtx adds per epoch
		s.feedInto(out, 8, pi, ws)
		pi, out = out, pi
	}
}

// TestFeedEpochAllocFree is the hard gate behind the benchmark above:
// the instrumented epoch kernel may not allocate at all.
func TestFeedEpochAllocFree(t *testing.T) {
	app := workload.Default(30)
	net, err := cluster.Central(8, app, cluster.Dists{Remote: cluster.WithCV2(10)}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	ws := s.getWS()
	defer s.putWS(ws)
	d := s.d(8)
	pi := ws.cur[:d]
	copy(pi, s.EntryVector(8))
	out := ws.next[:d]
	if n := testing.AllocsPerRun(100, func() {
		_ = s.EpochTime(8, pi)
		mEpochs.Inc()
		s.feedInto(out, 8, pi, ws)
		pi, out = out, pi
	}); n != 0 {
		t.Fatalf("instrumented epoch kernel allocates %v allocs/op, want 0", n)
	}
}

func BenchmarkSolveN100K8(b *testing.B) {
	s := benchNet(b, 8, cluster.Dists{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(100); err != nil {
			b.Fatal(err)
		}
	}
}

// Large-K transient pass, allocation-tracked: the Result slices and
// entry vector are the only allocations however large N is.
func BenchmarkSolveN400K8H2(b *testing.B) {
	s := benchNet(b, 8, cluster.Dists{Remote: cluster.WithCV2(10)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(400); err != nil {
			b.Fatal(err)
		}
	}
}

// A 100-point N-sweep: one SolveSweep feeding pass with checkpointed
// drains versus 100 independent Solve calls.
func sweepNs() []int {
	ns := make([]int, 100)
	for i := range ns {
		ns[i] = 8 + 4*i // 8 .. 404
	}
	return ns
}

func BenchmarkSolveSweep100PointsK8(b *testing.B) {
	s := benchNet(b, 8, cluster.Dists{Remote: cluster.WithCV2(10)})
	ns := sweepNs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveSweep(ns); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepeatedSolve100PointsK8(b *testing.B) {
	s := benchNet(b, 8, cluster.Dists{Remote: cluster.WithCV2(10)})
	ns := sweepNs()
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

func BenchmarkSteadyStateK8(b *testing.B) {
	s := benchNet(b, 8, cluster.Dists{Remote: cluster.WithCV2(10)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SteadyState(); err != nil {
			b.Fatal(err)
		}
	}
}

// A mid-size distributed model whose larger levels take the sparse LU.
func BenchmarkDenseSolveDistributedK4(b *testing.B) {
	app := workload.Default(20)
	net, err := cluster.Distributed(4, app, cluster.Dists{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSolver(net, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(20); err != nil {
			b.Fatal(err)
		}
	}
}
