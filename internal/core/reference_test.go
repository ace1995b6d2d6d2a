package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"finwl/internal/cluster"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/workload"
)

// refSolve is the paper's recursion written straight from the public
// primitives, one workload at a time: n−K feeding epochs from p_K,
// then the drain K, …, 1 (or the drain n, …, 1 from p_n when n < K).
// It shares the solver's kernels but none of its epoch loop, so the
// loop must reproduce it to the last bit.
func refSolve(s *Solver, n int) *Result {
	k := min(n, s.K)
	res := &Result{N: n, K: k}
	var clock float64
	epoch := func(t float64) {
		clock += t
		res.Epochs = append(res.Epochs, t)
		res.Departures = append(res.Departures, clock)
	}
	pi := s.EntryVector(k)
	for i := k; i < n; i++ {
		epoch(s.EpochTime(k, pi))
		pi = s.Feed(k, pi)
	}
	for ; k >= 1; k-- {
		epoch(s.EpochTime(k, pi))
		pi = s.Depart(k, pi)
	}
	res.TotalTime = clock
	return res
}

// sameResult requires got to equal want bit for bit.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got == nil || got.N != want.N || got.K != want.K || len(got.Epochs) != len(want.Epochs) || len(got.Departures) != len(want.Departures) {
		t.Fatalf("N=%d: malformed result %+v, want N=%d K=%d with %d epochs", want.N, got, want.N, want.K, len(want.Epochs))
	}
	for j := range want.Epochs {
		if got.Epochs[j] != want.Epochs[j] || got.Departures[j] != want.Departures[j] {
			t.Fatalf("N=%d: epoch %d = (%v, %v), want (%v, %v)", want.N, j,
				got.Epochs[j], got.Departures[j], want.Epochs[j], want.Departures[j])
		}
	}
	if got.TotalTime != want.TotalTime {
		t.Fatalf("N=%d: TotalTime %v, want %v", want.N, got.TotalTime, want.TotalTime)
	}
}

// denseRef is an independent transient solver for the same chain:
// every level system is solved from scratch with the pivoted dense
// matrix.SolveRobust on I − P_k, sharing no factorization with Solver.
type denseRef struct {
	chain *network.Chain
	a     []*matrix.Matrix // I − P_k
	tau   [][]float64      // τ'_k
}

func newDenseRef(t *testing.T, chain *network.Chain) *denseRef {
	t.Helper()
	K := len(chain.Levels) - 1
	r := &denseRef{chain: chain, a: make([]*matrix.Matrix, K+1), tau: make([][]float64, K+1)}
	for k := 1; k <= K; k++ {
		lvl := chain.Levels[k]
		r.a[k] = lvl.P.IMinusDense()
		minvEps := make([]float64, len(lvl.MDiag))
		for i, m := range lvl.MDiag {
			minvEps[i] = 1 / m
		}
		tau, _, err := matrix.SolveRobust(r.a[k], minvEps)
		if err != nil {
			t.Fatalf("level %d: %v", k, err)
		}
		r.tau[k] = tau
	}
	return r
}

// depart returns π·Y_k = y·Q_k with y·(I − P_k) = π.
func (r *denseRef) depart(t *testing.T, k int, pi []float64) []float64 {
	y, _, err := matrix.SolveLeftRobust(r.a[k], pi)
	if err != nil {
		t.Fatalf("level %d: %v", k, err)
	}
	return r.chain.Levels[k].Q.VecMul(y)
}

// solve returns the epoch times of an n-task workload.
func (r *denseRef) solve(t *testing.T, n int) []float64 {
	k := min(n, len(r.chain.Levels)-1)
	pi := r.chain.EntryVector(k)
	var epochs []float64
	for i := k; i < n; i++ {
		epochs = append(epochs, matrix.Dot(pi, r.tau[k]))
		pi = r.chain.Levels[k].R.VecMul(r.depart(t, k, pi))
	}
	for ; k >= 1; k-- {
		epochs = append(epochs, matrix.Dot(pi, r.tau[k]))
		pi = r.depart(t, k, pi)
	}
	return epochs
}

// steadyEpoch returns t_ss = π*·τ'_K for the fixed point π* = π*·T of
// T = (I − P_K)⁻¹·Q_K·R_K, solved directly with Σπ* = 1 replacing one
// equation of (Tᵀ − I)·π*ᵀ = 0.
func (r *denseRef) steadyEpoch(t *testing.T) float64 {
	K := len(r.chain.Levels) - 1
	d := r.chain.D(K)
	tm := matrix.New(d, d)
	e := make([]float64, d)
	for i := 0; i < d; i++ {
		e[i] = 1
		copy(tm.RawRow(i), r.chain.Levels[K].R.VecMul(r.depart(t, K, e)))
		e[i] = 0
	}
	a := tm.Transpose().Sub(matrix.Identity(d))
	for j := 0; j < d; j++ {
		a.Set(d-1, j, 1)
	}
	e[d-1] = 1
	pi, _, err := matrix.SolveRobust(a, e)
	if err != nil {
		t.Fatal(err)
	}
	return matrix.Dot(pi, r.tau[K])
}

// sparseFactoredSolver builds a solver over the §5.4 central cluster
// with hyperexponential remote and Erlang CPU service, and requires at
// least one of its levels to have taken the sparse LU.
func sparseFactoredSolver(t *testing.T, k int) *Solver {
	t.Helper()
	net, err := cluster.Central(k, workload.Default(15), cluster.Dists{
		Remote: cluster.WithCV2(10),
		CPU:    cluster.ErlangStages(2),
	}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := mSparseFactors.Value()
	s := mustSolver(t, net, k)
	if mSparseFactors.Value() == before {
		t.Fatal("no level took the sparse LU; the test model no longer exercises it")
	}
	return s
}

// The solver, whose larger levels factor through the sparse no-pivot
// LU, agrees with the dense pivoted reference on every epoch.
func TestSparseMatchesDenseCentral(t *testing.T) {
	s := sparseFactoredSolver(t, 4)
	ref := newDenseRef(t, s.Chain)
	for _, n := range []int{1, 3, 4, 15, 40} {
		res, err := s.Solve(n)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.solve(t, n)
		var total float64
		for i, w := range want {
			approx(t, res.Epochs[i], w, 1e-12, fmt.Sprintf("N=%d epoch %d", n, i))
			total += w
		}
		approx(t, res.TotalTime, total, 1e-12, fmt.Sprintf("N=%d total", n))
	}
}

// The steady-state epoch time agrees with the dense reference's fixed
// point on the same sparse-factored model.
func TestSparseSteadyStateMatchesDense(t *testing.T) {
	s := sparseFactoredSolver(t, 4)
	_, tss, err := s.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, tss, newDenseRef(t, s.Chain).steadyEpoch(t), 1e-12, "t_ss")
}

// Concurrent solves on a model whose levels factor through the sparse
// LU agree bit for bit with each other and with the dense pivoted
// reference (run with -race).
func TestSparseSolverConcurrentUse(t *testing.T) {
	s := sparseFactoredSolver(t, 4)
	const n = 15
	var want float64
	for _, e := range newDenseRef(t, s.Chain).solve(t, n) {
		want += e
	}
	first, err := s.TotalTime(n)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, first, want, 1e-12, "sparse-factored total")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.TotalTime(n)
			if err != nil {
				errs <- err
				return
			}
			if got != first {
				errs <- errMismatch{got, first}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Property: on random small networks the solver agrees with the dense
// reference.
func TestSparseMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		net := randomNet(r)
		k := 1 + r.Intn(3)
		s, err := NewSolver(net, k)
		if err != nil {
			return false
		}
		n := k + r.Intn(5)
		total, err := s.TotalTime(n)
		if err != nil {
			return false
		}
		var want float64
		for _, e := range newDenseRef(t, s.Chain).solve(t, n) {
			want += e
		}
		return closeRel(total, want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// breakDiskSymmetry moves the service rate of disk i (stations 2…k of
// a distributed cluster of k workstations) i−1 ulps up, so no two
// disks are exchangeable and the network's chain is the full reduced
// space, while every answer moves only by rounding.
func breakDiskSymmetry(net *network.Network, k int) error {
	for disk := 2; disk <= k; disk++ {
		svc := *net.Stations[disk].Service
		svc.Rates = append([]float64(nil), svc.Rates...)
		for range disk - 1 {
			svc.Rates[0] = math.Nextafter(svc.Rates[0], math.Inf(1))
		}
		net.Stations[disk].Service = &svc
	}
	if c := net.Space().Classes(); c != nil {
		return fmt.Errorf("perturbed cluster lumped: classes %v", c)
	}
	return nil
}

// The drain vectors of the lumped distributed cluster equal the full
// chain's orbit by orbit: D_k at every full state, read off the
// cluster with its disks a few ulps apart (breakDiskSymmetry), equals
// D_k at the state's canonical representative within 1e-12, for
// K ≤ 5 at remote CV² 1, 4 and 10.
func TestLumpedDrainVectorsMatchFullChain(t *testing.T) {
	app := workload.Default(30)
	for _, cv2 := range []float64{1, 4, 10} {
		d := cluster.Dists{Remote: cluster.WithCV2(cv2)}
		for k := 1; k <= 5; k++ {
			t.Run(fmt.Sprintf("cv%g/K=%d", cv2, k), func(t *testing.T) {
				net, err := cluster.Distributed(k, app, d)
				if err != nil {
					t.Fatal(err)
				}
				fullNet, err := cluster.Distributed(k, app, d)
				if err != nil {
					t.Fatal(err)
				}
				if err := breakDiskSymmetry(fullNet, k); err != nil {
					t.Fatal(err)
				}
				lumped, full := mustSolver(t, net, k), mustSolver(t, fullNet, k)
				if k > 1 && !lumped.Chain.Space.Lumped() {
					t.Fatal("distributed cluster not lumped")
				}
				for j := 1; j <= k; j++ {
					states := full.Chain.Levels[j].States
					buf := make([]int, lumped.Chain.Space.Width())
					for i, v := range full.levels[j].drain {
						copy(buf, states.State(i))
						lumped.Chain.Space.Canonicalize(buf)
						w := lumped.levels[j].drain[lumped.Chain.Levels[j].States.MustIndex(buf)]
						if !closeRel(v, w, 1e-12) {
							t.Fatalf("D_%d[%d] = %v, lumped %v", j, i, v, w)
						}
					}
				}
			})
		}
	}
}

// A distributed cluster of six workstations factors through the
// sparse LU at both of its sizes, each checked against the
// perfect-parallelism and fully-serial bounds. Its six disks are
// exchangeable, so the chain is lumped: 75 states at level 6. The same
// cluster with each disk's service rate a different number of ulps
// off has no exchangeable pair and keeps the full reduced space,
// C(13,6) = 1716 states at level 6, and its E(T) equals the lumped
// one's to rounding.
func TestSparseLargeDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space in -short mode")
	}
	app := workload.Default(12)
	k := 6
	solve := func(t *testing.T, net *network.Network, wantD int) float64 {
		t.Helper()
		before := mSparseFactors.Value()
		s := mustSolver(t, net, k)
		if mSparseFactors.Value() == before {
			t.Fatal("no level of the model took the sparse LU")
		}
		if d := s.Chain.D(k); d != wantD {
			t.Fatalf("D(%d) = %d, want %d", k, d, wantD)
		}
		total, err := s.TotalTime(app.N)
		if err != nil {
			t.Fatal(err)
		}
		lower := app.SingleTaskTime() * float64(app.N) / float64(k)
		upper := app.SingleTaskTime() * float64(app.N)
		if total < lower || total > upper {
			t.Fatalf("E(T) = %v outside [%v, %v]", total, lower, upper)
		}
		return total
	}
	lumped, err := cluster.Distributed(k, app, cluster.Dists{})
	if err != nil {
		t.Fatal(err)
	}
	// Level 6 lumped: Σ_c (7−c)·p(c) over the c customers at the disks,
	// with p the partition numbers 1, 1, 2, 3, 5, 7, 11.
	lumpedT := solve(t, lumped, 75)

	full, err := cluster.Distributed(k, app, cluster.Dists{})
	if err != nil {
		t.Fatal(err)
	}
	if err := breakDiskSymmetry(full, k); err != nil {
		t.Fatal(err)
	}
	// D(6) for 8 stations = C(13,6) = 1716.
	fullT := solve(t, full, 1716)
	if !closeRel(fullT, lumpedT, 1e-12) {
		t.Fatalf("E(T): full chain %v, lumped %v", fullT, lumpedT)
	}
}
