package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"finwl/internal/check"
	"finwl/internal/cluster"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/workload"
)

// splitTol is the relative gap allowed between SplitTotalTimeCtx and
// Solve for m = n − K feeding epochs. Both sum the same epochs, but
// each recursion's rounding error grows with the epochs it runs: the
// relative gap reaches 1.4e-13 at n = 2000 and 2.2e-12 at n = 20000 on
// these models, while each is up to 6.3e-12 off the high-precision
// E(T) at n = 20000 (TestSplitTotalTimeMatchesExactReference).
func splitTol(m int) float64 { return 1e-13 + 2e-16*float64(max(m, 0)) }

// splitModel is one family of the split-equivalence grid, built at
// K = 1…maxK.
type splitModel struct {
	name string
	maxK int
	net  func(k int) (*network.Network, error)
}

// splitModels are the families the split is held to: central and
// distributed clusters at remote CV² 1, 4 and 10, a multi-server
// station, and the slow-mixing truncated power tail of
// examples/powertail, all at K = 1…8. The distributed cluster's disks
// are exchangeable, so its chain is lumped (d_K ≤ 964 at K = 8). Each
// distributed family has an unlumped twin whose disks differ by a few
// ulps of service rate (breakDiskSymmetry), which keeps the large
// levels of the full reduced space in the grid: it stops at K = 5
// (d_K = 2,668) for CV² 4 and 10 and at K = 7 (d_K = 6,435) for CV² 1,
// since the next level of each (d_K = 14,407 and 24,310) takes seconds
// to build. Under the race detector the CV² 1 twin stops at K = 6.
func splitModels() []splitModel {
	app := workload.Default(30)
	var ms []splitModel
	for _, cv2 := range []float64{1, 4, 10} {
		d := cluster.Dists{Remote: cluster.WithCV2(cv2)}
		fullK := 5
		if cv2 == 1 {
			fullK = 7
			if raceEnabled {
				fullK = 6
			}
		}
		ms = append(ms,
			splitModel{fmt.Sprintf("central-cv%g", cv2), 8, func(k int) (*network.Network, error) {
				return cluster.Central(k, app, d, cluster.Options{})
			}},
			splitModel{fmt.Sprintf("distributed-cv%g", cv2), 8, func(k int) (*network.Network, error) {
				return cluster.Distributed(k, app, d)
			}},
			splitModel{fmt.Sprintf("distributed-unlumped-cv%g", cv2), fullK, func(k int) (*network.Network, error) {
				net, err := cluster.Distributed(k, app, d)
				if err != nil {
					return nil, err
				}
				return net, breakDiskSymmetry(net, k)
			}})
	}
	tpt := func(mean float64) (*phase.PH, error) { return phase.TPT(12, 1.4, mean) }
	return append(ms,
		splitModel{"multiserver", 8, func(int) (*network.Network, error) { return multiNet(3, 2, 1.5), nil }},
		splitModel{"powertail", 8, func(k int) (*network.Network, error) {
			return cluster.Central(k, app, cluster.Dists{Remote: tpt}, cluster.Options{})
		}})
}

// longSplitLevel is the largest level-K dimension at which the grid
// runs a long workload, whose epochs cost O(d_K) each for both the
// split and the reference: n = 2000 for d_K ≤ 2000 (leaving out only
// the unlumped distributed twins at CV² 4 and 10 at K = 5, d_K = 2,668,
// and at CV² 1 at K = 7, d_K = 6,435), n = 20000 for d_K ≤ 300
// (through central K = 8, lumped distributed CV² 1 at K = 8 and lumped
// CV² 4 and 10 at K = 6), and under the race detector, whose instrumentation slows the
// grid about 15×, both only for d_K ≤ 30. Every level runs n ≤ 10K.
func longSplitLevel(n int) int {
	switch {
	case raceEnabled:
		return 30
	case n > 2000:
		return 300
	}
	return 2000
}

// The split E(T) agrees with Solve(n).TotalTime on every model for
// K = 1…maxK and n ∈ {1, K−1, K, K+1, K+2, 10K, 2000, 20000}, and the
// drain-only answers p_n·D_n agree with Solve(n) for every n ≤ K. The
// reference is one SolveSweep pass, whose totals are Solve's bits.
func TestSplitTotalTimeMatchesSolve(t *testing.T) {
	ctx := context.Background()
	for _, m := range splitModels() {
		for k := 1; k <= m.maxK; k++ {
			t.Run(fmt.Sprintf("%s/K=%d", m.name, k), func(t *testing.T) {
				net, err := m.net(k)
				if err != nil {
					t.Fatal(err)
				}
				s := mustSolver(t, net, k)
				var ns []int
				for n := 1; n <= k; n++ {
					ns = append(ns, n)
				}
				ns = append(ns, k+1, k+2, 10*k)
				for _, n := range []int{2000, 20000} {
					if s.d(k) <= longSplitLevel(n) {
						ns = append(ns, n)
					}
				}
				want, err := s.TotalTimeSweep(ns)
				if err != nil {
					t.Fatal(err)
				}
				for i, n := range ns {
					got, err := s.SplitTotalTimeCtx(ctx, n)
					if err != nil {
						t.Fatalf("n=%d: %v", n, err)
					}
					if rel := math.Abs(got-want[i]) / want[i]; !(rel <= splitTol(n-k)) {
						t.Errorf("n=%d: split %v, Solve %v (relative gap %.3g, want ≤ %.3g)",
							n, got, want[i], rel, splitTol(n-k))
					}
				}
			})
		}
	}
}

// D_k is the drain time from each state of level k: one more
// departure's mean time plus D_{k−1} from where it lands, so
// D_k = τ'_k + Y_k·D_{k−1}, checked here through the public Depart on
// each unit vector.
func TestDrainVectorIsDrainTime(t *testing.T) {
	s := mustSolver(t, centralCluster(5, phase.MustHyperExpFit(1, 10)), 5)
	for k := 1; k <= s.K; k++ {
		d := s.d(k)
		for i := 0; i < d; i++ {
			e := make([]float64, d)
			e[i] = 1
			want := s.levels[k].tau[i]
			if k > 1 {
				want += matrix.Dot(s.Depart(k, e), s.levels[k-1].drain)
			}
			approx(t, s.levels[k].drain[i], want, 1e-13, fmt.Sprintf("D_%d[%d]", k, i))
		}
	}
}

// The split point and the summation order depend on n alone, so the
// answer's bits do not depend on GOMAXPROCS, on either side of the
// serial/parallel cutover.
func TestSplitTotalTimeDeterministicAcrossProcs(t *testing.T) {
	s := perfSolverK8(t)
	ctx := context.Background()
	ns := []int{1, 8, 9, 30, 1250}
	var ref []float64
	for _, procs := range []int{1, 2, 4} {
		old := runtime.GOMAXPROCS(procs)
		got := make([]float64, len(ns))
		for i, n := range ns {
			v, err := s.SplitTotalTimeCtx(ctx, n)
			if err != nil {
				runtime.GOMAXPROCS(old)
				t.Fatal(err)
			}
			got[i] = v
		}
		runtime.GOMAXPROCS(old)
		if ref == nil {
			ref = got
			continue
		}
		for i := range ns {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Errorf("GOMAXPROCS=%d n=%d: %v, want the GOMAXPROCS=1 bits %v", procs, ns[i], got[i], ref[i])
			}
		}
	}
}

// perfSolverK8 is the serving benchmark's model: central K=8 with an
// H2 remote disk at CV² 10. Its epochs cost enough that n ≥ 45 runs
// the two halves in parallel when more than one processor is set; a
// smaller n runs both on the calling goroutine.
func perfSolverK8(t *testing.T) *Solver {
	t.Helper()
	net, err := cluster.Central(8, workload.Default(30), cluster.Dists{Remote: cluster.WithCV2(10)}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return mustSolver(t, net, 8)
}

// countdownCtx is a live context whose Err reports cancellation from
// its (after+1)-th poll on, so a test can cancel at an exact epoch.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(after int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(after))
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// waitGoroutines waits up to a second for the goroutine count to fall
// back to base: a worker that has signalled its WaitGroup may still be
// on its way out.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// goid returns the calling goroutine's id, parsed from the
// "goroutine N [" header of its stack trace.
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	var id int
	if _, err := fmt.Sscanf(string(buf), "goroutine %d ", &id); err != nil {
		panic(err)
	}
	return id
}

// pollCtx is a live context that records the goroutine of every Err
// poll. Both halves poll once per epoch, so the set shows where they
// ran.
type pollCtx struct {
	context.Context
	mu  sync.Mutex
	ids map[int]bool
}

func (c *pollCtx) Err() error {
	c.mu.Lock()
	c.ids[goid()] = true
	c.mu.Unlock()
	return nil
}

// Below the cutover both halves run on the calling goroutine whatever
// GOMAXPROCS is; above it, at GOMAXPROCS ≥ 2, the pool runs them.
func TestSplitTotalTimeSerialBelowCutover(t *testing.T) {
	s := perfSolverK8(t)
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	caller := goid()
	for _, tc := range []struct {
		n        int
		parallel bool
	}{{9, false}, {44, false}, {45, true}, {208, true}} {
		ctx := &pollCtx{Context: context.Background(), ids: map[int]bool{}}
		if _, err := s.SplitTotalTimeCtx(ctx, tc.n); err != nil {
			t.Fatal(err)
		}
		if onCaller := len(ctx.ids) == 1 && ctx.ids[caller]; onCaller == tc.parallel {
			t.Errorf("n=%d: epochs polled on goroutines %v (caller %d), want parallel=%v", tc.n, ctx.ids, caller, tc.parallel)
		}
	}
}

// A cancellation observed inside the backward half returns
// check.ErrCanceled and leaves no goroutine behind. At GOMAXPROCS=1
// the halves run in order, forward first, so the countdown lands at a
// known backward step; with more processors it lands in whichever
// half polls it.
func TestSplitTotalTimeCanceledInBackwardHalf(t *testing.T) {
	s := perfSolverK8(t)
	const n = 208 // m = 200: 100 forward and 100 backward epochs
	m1 := (n - s.K + 1) / 2

	old := runtime.GOMAXPROCS(1)
	base := runtime.NumGoroutine()
	before := mEpochs.Value()
	// Polls: one before each half, m1 in the forward half, then three
	// backward steps before the countdown runs out.
	_, err := s.SplitTotalTimeCtx(newCountdownCtx(1+m1+1+3), n)
	ran := mEpochs.Value() - before
	runtime.GOMAXPROCS(old)
	if !errors.Is(err, check.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("serial: %v, want ErrCanceled matching context.Canceled", err)
	}
	if want := int64(m1 + 3); ran != want {
		t.Fatalf("serial: %d epochs ran before the cancel, want %d (all %d forward, 3 backward)", ran, want, m1)
	}
	waitGoroutines(t, base)

	for _, procs := range []int{2, 4} {
		old := runtime.GOMAXPROCS(procs)
		_, err := s.SplitTotalTimeCtx(newCountdownCtx(m1+20), n)
		runtime.GOMAXPROCS(old)
		if !errors.Is(err, check.ErrCanceled) {
			t.Fatalf("GOMAXPROCS=%d: %v, want ErrCanceled", procs, err)
		}
		waitGoroutines(t, base)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SplitTotalTimeCtx(ctx, n); !errors.Is(err, check.ErrCanceled) {
		t.Fatalf("pre-canceled: %v, want ErrCanceled", err)
	}
	if _, err := s.SplitTotalTimeCtx(context.Background(), 0); !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("n=0: %v, want ErrInvalidModel", err)
	}
}

// Concurrent callers on one Solver agree bit for bit with a serial
// call and never write the drain vectors, which the constructor built
// once (run with -race).
func TestSplitTotalTimeConcurrentUse(t *testing.T) {
	net, err := cluster.Central(5, workload.Default(30), cluster.Dists{Remote: cluster.WithCV2(10)}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSolver(t, net, 5)
	drains := make([][]float64, s.K+1)
	for k := 1; k <= s.K; k++ {
		drains[k] = append([]float64(nil), s.levels[k].drain...)
	}
	ns := []int{3, 5, 40, 1500}
	want := make([]float64, len(ns))
	for i, n := range ns {
		if want[i], err = s.SplitTotalTimeCtx(context.Background(), n); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				i := (g + r) % len(ns)
				got, err := s.SplitTotalTimeCtx(context.Background(), ns[i])
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("n=%d: concurrent %v, serial %v", ns[i], got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	for k := 1; k <= s.K; k++ {
		for i, v := range s.levels[k].drain {
			if math.Float64bits(v) != math.Float64bits(drains[k][i]) {
				t.Fatalf("D_%d[%d] changed under concurrent solves: %v, was %v", k, i, v, drains[k][i])
			}
		}
	}
}

// The split path allocates nothing per epoch: its allocation count is
// the same at n = 100 and n = 10,000, both above the parallel cutover.
func TestSplitTotalTimeAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on goroutine start-up")
	}
	s := perfSolverK8(t)
	ctx := context.Background()
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(4, func() {
			if _, err := s.SplitTotalTimeCtx(ctx, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10000); small != large {
		t.Fatalf("split path allocates %v per call at n=100 but %v at n=10000", small, large)
	}
}
