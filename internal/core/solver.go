// Package core implements the paper's primary contribution: the
// transient, finite-workload solution of a closed queueing network
// (§4). A job of N iid tasks runs on a system that holds at most K of
// them; each departure is immediately replaced from the queue until
// the workload drains.
//
// For each population level k the solver factors A_k = I − P_k once
// and computes τ'_k = A_k⁻¹ M_k⁻¹ ε, the mean-time-to-next-departure
// vector. An epoch then costs one dot product (its mean length) and
// one left-solve (the post-departure state): π·Y_k = y·Q_k where
// y·A_k = π, because Y_k = V_k M_k Q_k and V_k = A_k⁻¹ M_k⁻¹.
//
// The same operator drives the three regimes the paper analyses:
//
//   - transient fill/feeding: π ← π·Y_K·R_K with epoch times
//     p_K (Y_K R_K)^i τ'_K,
//   - steady state: the fixed point π* = π*·Y_K·R_K with
//     t_ss = π*·τ'_K, which for exponential servers coincides with the
//     product-form (Jackson) solution,
//   - draining: after the queue empties, π steps down the levels
//     k = K, K−1, …, 1 through Y_k with epoch times π·τ'_k.
//
// Performance: level factorizations fan out over a worker pool at
// construction; the epoch loop runs on pooled scratch workspaces and
// the *Into matrix kernels, so the N epochs of Solve, the sweep pass
// of SolveSweep, and the power iterations perform zero allocations
// per iteration. SplitTotalTimeCtx, the serving path, returns E(T)
// alone from a forward and a backward half that may run on two
// cores. Solvers are safe for concurrent use.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"finwl/internal/check"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/par"
	"finwl/internal/sparse"
)

// finiteResult screens a scalar result boundary: a NaN/Inf mean time
// means the model fed the kernels something the validators could not
// see (e.g. a pathological but structurally valid chain), and must
// surface as a typed error instead of a silent garbage number.
func finiteResult(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("core: %s is %v: %w", name, v, check.ErrNumeric)
	}
	return nil
}

// Solver holds a network's level matrices with their factorizations.
type Solver struct {
	Chain  *network.Chain
	K      int
	levels []*levelSolver // index k ∈ [1, K]
	maxD   int            // largest level dimension
	ws     sync.Pool      // *workspace scratch, so solves never share state
}

type levelSolver struct {
	lvl   *network.Level
	fact  *sparse.LU // factorization of A_k = I − P_k
	tau   []float64  // τ'_k
	drain []float64  // D_k: mean time to drain from each state of level k
}

// workspace is the per-solve scratch memory: every buffer is sized to
// the largest level, so one workspace serves a whole transient pass
// without reallocation. Workspaces are pooled on the Solver; a Solve,
// SolveSweep, SplitTotalTimeCtx, SteadyState or TimeStationary call
// checks one out for its duration, which keeps concurrent calls from
// sharing state.
type workspace struct {
	y          []float64 // left-solve result inside departInto
	t          []float64 // post-departure vector inside feedInto
	cur, next  []float64 // ping-pong feeding-state distributions
	dcur, dnxt []float64 // ping-pong draining-state distributions
	u          []float64 // R_K·w inside backHalf
}

// NewSolver builds the level chain for populations 1..K and factors
// every level.
func NewSolver(net *network.Network, K int) (*Solver, error) {
	return NewSolverCtx(context.Background(), net, K)
}

// NewSolverCtx is NewSolver under a context: both the chain
// construction and the per-level factorizations observe cancellation,
// surfacing it as a check.ErrCanceled-matching error.
func NewSolverCtx(ctx context.Context, net *network.Network, K int) (*Solver, error) {
	chain, err := network.NewChainCtx(ctx, net, K)
	if err != nil {
		return nil, err
	}
	return NewSolverFromChainCtx(ctx, chain)
}

// NewSolverFromChain factors an already-built chain. See
// NewSolverFromChainCtx.
func NewSolverFromChain(chain *network.Chain) (*Solver, error) {
	return NewSolverFromChainCtx(context.Background(), chain)
}

// NewSolverFromChainCtx factors an already-built chain under a
// context. The per-level factorizations are independent, so they run
// across a worker pool when the modeled work justifies it; results
// land in per-level slots, worker panics come back as wrapped errors,
// and a singular or numerically hopeless level reports a
// check.ErrSingular-matching error naming the level.
func NewSolverFromChainCtx(ctx context.Context, chain *network.Chain) (*Solver, error) {
	K := len(chain.Levels) - 1
	s := &Solver{Chain: chain, K: K, levels: make([]*levelSolver, K+1)}
	err := par.ForCost(ctx, K,
		func(i int) int64 { return factorCost(chain.Levels[K-i]) },
		func(i int) error {
			k := K - i // biggest level first, for load balance
			lvl := chain.Levels[k]
			d := lvl.States.Count()
			fact, err := factorLevel(k, lvl)
			if err != nil {
				return err
			}
			minvEps := make([]float64, d)
			for i := 0; i < d; i++ {
				minvEps[i] = 1 / lvl.MDiag[i]
			}
			s.levels[k] = &levelSolver{lvl: lvl, fact: fact, tau: fact.Solve(minvEps)}
			return nil
		})
	if err != nil {
		return nil, err
	}
	for k := 0; k <= K; k++ {
		if d := chain.Levels[k].States.Count(); d > s.maxD {
			s.maxD = d
		}
	}
	// D_0 = 0 and D_k = τ'_k + A_k⁻¹(Q_k·D_{k−1}) = τ'_k + Y_k·D_{k−1}:
	// one right solve per level, so a drain from any distribution
	// over level k is the dot product π·D_k.
	prev := make([]float64, chain.Levels[0].States.Count())
	for k := 1; k <= K; k++ {
		ls := s.levels[k]
		dk := ls.lvl.Q.MulVec(prev)
		ls.fact.SolveInto(dk, dk)
		for i, t := range ls.tau {
			dk[i] += t
		}
		ls.drain, prev = dk, dk
	}
	s.ws.New = func() any {
		return &workspace{
			y:    make([]float64, s.maxD),
			t:    make([]float64, s.maxD),
			cur:  make([]float64, s.maxD),
			next: make([]float64, s.maxD),
			dcur: make([]float64, s.maxD),
			dnxt: make([]float64, s.maxD),
			u:    make([]float64, s.maxD),
		}
	}
	return s, nil
}

// factorCost models a level's refactorization in ForCost's tens-of-ns
// units: its multiply-adds (a few ns each) plus a pass over the L+U
// pattern and the rows.
func factorCost(lvl *network.Level) int64 {
	return lvl.Sym.Flops()/4 + int64(lvl.Sym.NNZ())/2 + int64(lvl.States.Count())
}

// factorLevel produces the level-k factorization: a numeric
// refactorization into the level's memoized sparse-LU analysis. A
// failure is reported with the level it happened at.
func factorLevel(k int, lvl *network.Level) (*sparse.LU, error) {
	span := mLevelFactor.Start()
	defer span.End()
	f, err := lvl.Sym.Factor(lvl.P)
	var ce *sparse.CondError
	switch {
	case errors.As(err, &ce):
		return nil, fmt.Errorf("core: level %d: I−P_k has condition estimate %.3g (limit %.3g): %w",
			k, ce.Cond, matrix.CondLimit, check.ErrSingular)
	case errors.Is(err, check.ErrSingular):
		return nil, fmt.Errorf("core: level %d: I−P_k singular (tasks can avoid departing): %w", k, err)
	case err != nil:
		return nil, fmt.Errorf("core: level %d: %w", k, err)
	}
	mSparseFactors.Inc()
	return f, nil
}

func (s *Solver) getWS() *workspace  { return s.ws.Get().(*workspace) }
func (s *Solver) putWS(w *workspace) { s.ws.Put(w) }

// d returns the state count at level k.
func (s *Solver) d(k int) int { return s.Chain.Levels[k].States.Count() }

// Tau returns a copy of τ'_k, the mean time until the next departure
// from each state of level k. The caller owns the returned slice.
func (s *Solver) Tau(k int) []float64 {
	s.checkLevel(k)
	return append([]float64(nil), s.levels[k].tau...)
}

func (s *Solver) checkLevel(k int) {
	if k < 1 || k > s.K {
		panic(fmt.Sprintf("core: level %d outside [1, %d]", k, s.K))
	}
}

// EpochTime returns the mean time to the next departure given state
// distribution pi over level k: π·τ'_k (the paper's Ψ[V_k] when π is
// the entry vector).
func (s *Solver) EpochTime(k int, pi []float64) float64 {
	s.checkLevel(k)
	return matrix.Dot(pi, s.levels[k].tau)
}

// departInto computes π·Y_k into dst (length D(k−1)) using y (length
// ≥ D(k)) as left-solve scratch. No allocations.
func (s *Solver) departInto(dst []float64, k int, pi []float64, y []float64) {
	ls := s.levels[k]
	yy := y[:len(pi)]
	ls.fact.SolveLeftInto(yy, pi)
	ls.lvl.Q.VecMulInto(dst, yy)
}

// feedInto computes π·Y_k·R_k into dst (length D(k)) using the
// workspace's y and t buffers. dst must not be ws.y or ws.t; it may
// be any other buffer, including one aliasing a previous pi.
func (s *Solver) feedInto(dst []float64, k int, pi []float64, ws *workspace) {
	lvl := s.Chain.Levels[k]
	dPrev := lvl.Q.Cols()
	s.departInto(ws.t[:dPrev], k, pi, ws.y)
	lvl.R.VecMulInto(dst, ws.t[:dPrev])
}

// Depart returns the state distribution over level k−1 immediately
// after a departure from distribution pi over level k: π·Y_k, with
// Y_k = V_k M_k Q_k evaluated as a left-solve followed by the exit
// map.
func (s *Solver) Depart(k int, pi []float64) []float64 {
	s.checkLevel(k)
	ws := s.getWS()
	defer s.putWS(ws)
	out := make([]float64, s.Chain.Levels[k].Q.Cols())
	s.departInto(out, k, pi, ws.y)
	return out
}

// Feed returns the state distribution after a departure immediately
// followed by a replacement arrival: π·Y_K·R_K.
func (s *Solver) Feed(k int, pi []float64) []float64 {
	s.checkLevel(k)
	ws := s.getWS()
	defer s.putWS(ws)
	out := make([]float64, s.d(k))
	s.feedInto(out, k, pi, ws)
	return out
}

// EntryVector returns p_k = p·R₂···R_k, the distribution right after
// the k-th task has entered an initially empty system.
func (s *Solver) EntryVector(k int) []float64 {
	s.checkLevel(k)
	return s.Chain.EntryVector(k)
}

// Result is the full transient solution for one workload.
type Result struct {
	N          int       // number of tasks
	K          int       // maximum concurrency used
	Epochs     []float64 // mean inter-departure time of each epoch, length N
	Departures []float64 // cumulative mean departure times, length N
	TotalTime  float64   // E(T) — mean time to complete all N tasks
}

// Solve computes the transient solution for a workload of N tasks.
// The first min(N, K) tasks enter at time zero; every departure is
// replaced while tasks remain queued; then the system drains. For
// N ≤ K the model is the paper's Case 1, otherwise Case 2. Each epoch
// costs one dot product, one left-solve and two vector-matrix
// products with no allocations.
func (s *Solver) Solve(n int) (*Result, error) {
	return s.SolveCtx(context.Background(), n)
}

// SolveCtx is Solve under a context: the epoch loop polls ctx once per
// epoch (a nil-check on a live context — the zero-allocation property
// of the loop is preserved) and returns a check.ErrCanceled-matching
// error as soon as cancellation is observed.
func (s *Solver) SolveCtx(ctx context.Context, n int) (*Result, error) {
	rs, errs := s.epochs(ctx, []int{n}, false)
	return rs[0], errs[0]
}

// TotalTime is a convenience wrapper returning only E(T) for N tasks.
func (s *Solver) TotalTime(n int) (float64, error) {
	r, err := s.Solve(n)
	if err != nil {
		return 0, err
	}
	return r.TotalTime, nil
}

// SplitTotalTimeCtx returns E(T) for n tasks: SolveCtx(ctx, n).TotalTime
// to rounding, computed in two halves that may run at once, without
// materializing the epochs.
//
// For n ≤ K it is the dot product p_n·D_n. For n > K, with m = n − K
// feeding epochs and m1 = ⌈m/2⌉, the forward half runs the first m1
// feeding epochs π_{i+1} = π_i·B, B = Y_K·R_K, summing π_i·τ'_K; the
// backward half runs m − m1 right-solve steps w_{j+1} = τ'_K + B·w_j
// from w_0 = D_K, so that w_j is the mean time to finish from each
// level-K state with j tasks still queued. Then
// E(T) = Σ_{i<m1} π_i·τ'_K + π_{m1}·w_{m−m1}.
//
// The halves run through par.ForCost as two items priced per epoch,
// so small solves stay on one goroutine. The split point and the
// summation order depend on n alone, never on GOMAXPROCS, so neither
// do the answer's bits. Both halves poll ctx once per epoch and count
// their steps in finwl_epochs_total; the answer counts in
// finwl_solves_total.
func (s *Solver) SplitTotalTimeCtx(ctx context.Context, n int) (float64, error) {
	if err := check.Count("core: workload size", n, 1); err != nil {
		return 0, err
	}
	K := s.K
	if n <= K {
		mSolves.Inc()
		total := matrix.Dot(s.Chain.EntryVector(n), s.levels[n].drain)
		return total, finiteResult("total time", total)
	}
	m := n - K
	m1 := (m + 1) / 2
	ws := s.getWS()
	defer s.putWS(ws)
	var (
		fwd   float64
		pi, w []float64
	)
	step := epochCost(s.Chain.Levels[K])
	halves := [2]int{m1, m - m1}
	err := par.ForCost(ctx, 2,
		func(i int) int64 { return int64(halves[i]) * step },
		func(i int) (err error) {
			if i == 0 {
				fwd, pi, err = s.feedHalf(ctx, halves[0], ws)
			} else {
				w, err = s.backHalf(ctx, halves[1], ws)
			}
			return err
		})
	if err != nil {
		return 0, err
	}
	mSolves.Inc()
	total := fwd + matrix.Dot(pi, w)
	return total, finiteResult("total time", total)
}

// epochCost models one level-K epoch in factorCost's units: a
// triangular solve pair over the L+U pattern plus the Q and R maps,
// about 2 ns per stored entry (central K=8 H2: 9,084 entries, an
// epoch of 15–20 µs on a 2-vCPU x86 VM).
func epochCost(lvl *network.Level) int64 {
	return int64(lvl.Sym.NNZ()+lvl.Q.NNZ()+lvl.R.NNZ()) / 5
}

// feedHalf runs m feeding epochs from p_K on ws's y, t, cur and next
// buffers. It returns Σ_{i<m} π_i·τ'_K and π_m.
func (s *Solver) feedHalf(ctx context.Context, m int, ws *workspace) (float64, []float64, error) {
	K := s.K
	tau := s.levels[K].tau
	pi, nxt := ws.cur[:len(tau)], ws.next[:len(tau)]
	copy(pi, s.Chain.EntryVector(K))
	var clock float64
	for i := 0; i < m; i++ {
		if err := check.Canceled(ctx); err != nil {
			return 0, nil, err
		}
		mEpochs.Inc()
		clock += matrix.Dot(pi, tau)
		s.feedInto(nxt, K, pi, ws)
		pi, nxt = nxt, pi
	}
	return clock, pi, nil
}

// backHalf runs j right-solve steps w ← τ'_K + A_K⁻¹(Q_K·(R_K·w)) from
// w = D_K on ws's dcur, dnxt and u buffers, disjoint from feedHalf's,
// and returns w_j.
func (s *Solver) backHalf(ctx context.Context, j int, ws *workspace) ([]float64, error) {
	ls := s.levels[s.K]
	q, r := ls.lvl.Q, ls.lvl.R
	w, nxt := ws.dcur[:len(ls.tau)], ws.dnxt[:len(ls.tau)]
	copy(w, ls.drain)
	u := ws.u[:r.Rows()]
	for i := 0; i < j; i++ {
		if err := check.Canceled(ctx); err != nil {
			return nil, err
		}
		mEpochs.Inc()
		r.MulVecInto(u, w)
		q.MulVecInto(nxt, u)
		ls.fact.SolveInto(nxt, nxt)
		for x, t := range ls.tau {
			nxt[x] += t
		}
		w, nxt = nxt, w
	}
	return w, nil
}

// SolveSweep computes the transient solution for every workload in ns
// in a single feeding pass. The feeding epochs of Solve(n) are a
// strict prefix of Solve(n′) for K ≤ n ≤ n′ (both start from p_K and
// apply Y_K·R_K per epoch), so the sweep advances one level-K state
// distribution to each requested checkpoint and runs the K draining
// epochs from a copy — O(max nᵢ + K·len(ns)) linear solves instead of
// the O(Σ nᵢ) of repeated Solve calls.
//
// Results are returned in the order of ns (which may be unsorted and
// may contain duplicates) and are identical to per-N Solve outputs:
// both run the same epoch loop. On failure it returns the error of
// the first failing workload in ns order.
func (s *Solver) SolveSweep(ns []int) ([]*Result, error) {
	return s.SolveSweepCtx(context.Background(), ns)
}

// SolveSweepCtx is SolveSweep under a context: cancellation is polled
// once per epoch, so a canceled sweep returns a check.ErrCanceled-
// matching error promptly instead of finishing the pass.
func (s *Solver) SolveSweepCtx(ctx context.Context, ns []int) ([]*Result, error) {
	results, errs := s.SolveSweepEachCtx(ctx, ns)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// SolveSweepEach is SolveSweepEachCtx with a background context.
func (s *Solver) SolveSweepEach(ns []int) ([]*Result, []error) {
	return s.SolveSweepEachCtx(context.Background(), ns)
}

// SolveSweepEachCtx runs the same shared feeding pass as SolveSweepCtx
// but reports success or failure per workload instead of failing the
// whole sweep: an invalid ns[i] records a typed error at index i
// without touching its neighbours, a numerical failure at one drain
// checkpoint poisons only that checkpoint, and a cancellation fails
// the current and every remaining larger workload while
// already-completed checkpoints keep their results. This is the batch
// scheduler's contract: one bad job in a group must not discard the
// group's work. Both slices are parallel to ns; exactly one of
// results[i], errs[i] is non-nil for every i.
func (s *Solver) SolveSweepEachCtx(ctx context.Context, ns []int) ([]*Result, []error) {
	return s.epochs(ctx, ns, true)
}

// epochs is the one feeding/draining epoch loop behind Solve and both
// sweeps. Valid workloads are visited in ascending order. One level-K
// state, started from p_K, is fed forward once for all of them; each
// workload n ≥ K replays the shared feeding times and drains K, …, 1
// from a copy of that state, and each n < K drains n, …, 1 from p_n
// with no feeding. The summation order is that of a standalone
// per-workload recursion, so every entry point returns the same bits.
//
// sweep selects the counter a workload lands in: a sweep entry point
// counts its n ≥ K workloads as drain checkpoints, every other solve
// counts in finwl_solves_total.
func (s *Solver) epochs(ctx context.Context, ns []int, sweep bool) ([]*Result, []error) {
	results := make([]*Result, len(ns))
	errs := make([]error, len(ns))
	targets := make([]int, 0, len(ns)) // indices of valid workloads, ascending n
	for i, n := range ns {
		if errs[i] = check.Count("core: workload size", n, 1); errs[i] == nil {
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		return results, errs
	}
	sort.SliceStable(targets, func(a, b int) bool { return ns[targets[a]] < ns[targets[b]] })

	ws := s.getWS()
	defer s.putWS(ws)
	K := s.K
	last := len(targets) - 1
	// feed holds the shared feeding-epoch times; the largest workload
	// adopts it as its own Epochs, so a single solve copies nothing.
	feed := make([]float64, 0, ns[targets[last]])
	var pi []float64 // the shared level-K feeding state
	cur, nxt := ws.cur, ws.next
	for ti, idx := range targets {
		n := ns[idx]
		kStart := min(n, K)
		if n >= K && pi == nil {
			pi = cur[:s.d(K)]
			copy(pi, s.Chain.EntryVector(K))
		}
		for len(feed) < n-K {
			if err := check.Canceled(ctx); err != nil {
				failFrom(errs, targets[ti:], err)
				return results, errs
			}
			mEpochs.Inc()
			feed = append(feed, matrix.Dot(pi, s.levels[K].tau))
			out := nxt[:len(pi)]
			s.feedInto(out, K, pi, ws)
			pi = out
			cur, nxt = nxt, cur
		}
		if sweep && n >= K {
			mSweepCheckpoints.Inc()
		} else {
			mSolves.Inc()
		}

		res := &Result{N: n, K: kStart, Epochs: feed[:n-kStart], Departures: make([]float64, 0, n)}
		if ti != last {
			res.Epochs = append(make([]float64, 0, n), res.Epochs...)
		}
		var clock float64
		for _, t := range res.Epochs {
			clock += t
			res.Departures = append(res.Departures, clock)
		}
		dcur, dnxt := ws.dcur, ws.dnxt
		dpi := dcur[:s.d(kStart)]
		if n < K {
			copy(dpi, s.Chain.EntryVector(n))
		} else {
			copy(dpi, pi)
		}
		for k := kStart; k >= 1; k-- {
			if err := check.Canceled(ctx); err != nil {
				failFrom(errs, targets[ti:], err)
				return results, errs
			}
			mEpochs.Inc()
			t := matrix.Dot(dpi, s.levels[k].tau)
			clock += t
			res.Epochs = append(res.Epochs, t)
			res.Departures = append(res.Departures, clock)
			out := dnxt[:s.d(k-1)]
			s.departInto(out, k, dpi, ws.y)
			dpi = out
			dcur, dnxt = dnxt, dcur
		}
		res.TotalTime = clock
		// The drain ran on a copy; a non-finite total poisons only
		// this workload, never the shared feeding state.
		if errs[idx] = finiteResult("total time", clock); errs[idx] == nil {
			results[idx] = res
		}
	}
	return results, errs
}

// failFrom records err for every listed workload: once the epoch loop
// stops, nothing downstream of it can be computed, but everything
// already checkpointed stands.
func failFrom(errs []error, targets []int, err error) {
	for _, idx := range targets {
		errs[idx] = err
	}
}

// TotalTimeSweep returns E(T) for every workload in ns via one
// SolveSweep pass, in the order of ns.
func (s *Solver) TotalTimeSweep(ns []int) ([]float64, error) {
	rs, err := s.SolveSweep(ns)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.TotalTime
	}
	return out, nil
}

// SteadyState solves π* = π*·Y_K·R_K, the fixed point of the feeding
// operator, and returns π* with the steady-state inter-departure time
// t_ss = π*·τ'_K (§6.1.2). For small levels it solves the linear
// system directly; otherwise it power-iterates the (cheap) operator
// form. The transient solution approaches t_ss per epoch as the
// workload grows, and for exponential servers t_ss matches the
// product-form solution.
func (s *Solver) SteadyState() (pi []float64, tss float64, err error) {
	return s.SteadyStateCtx(context.Background())
}

// SteadyStateCtx is SteadyState under a context; the power-iteration
// path polls ctx periodically.
func (s *Solver) SteadyStateCtx(ctx context.Context) (pi []float64, tss float64, err error) {
	if err := check.Canceled(ctx); err != nil {
		return nil, 0, err
	}
	k := s.K
	d := s.d(k)
	if d <= 400 {
		pi, err = s.steadyDirect(k)
	} else {
		pi, err = s.steadyPower(ctx, k)
	}
	if err != nil {
		return nil, 0, err
	}
	tss = s.EpochTime(k, pi)
	if err := finiteResult("steady-state epoch time", tss); err != nil {
		return nil, 0, err
	}
	return pi, tss, nil
}

// steadyDirect builds T = Y_K·R_K densely and solves the singular
// system πT = π with the normalization Σπ = 1 replacing one equation.
func (s *Solver) steadyDirect(k int) ([]float64, error) {
	d := s.d(k)
	ws := s.getWS()
	// Build T row by row: row i of T is e_i·Y_k·R_k, written straight
	// into the matrix storage.
	tmat := matrix.New(d, d)
	e := ws.dcur[:d]
	for i := range e {
		e[i] = 0
	}
	for i := 0; i < d; i++ {
		e[i] = 1
		s.feedInto(tmat.RawRow(i), k, e, ws)
		e[i] = 0
	}
	s.putWS(ws)
	// Solve π(T − I) = 0 with Σπ = 1: transpose to (Tᵀ − I)x = 0 and
	// overwrite the last equation with the normalization.
	a := tmat.Transpose().Sub(matrix.Identity(d))
	for j := 0; j < d; j++ {
		a.Set(d-1, j, 1)
	}
	b := make([]float64, d)
	b[d-1] = 1
	x, err := matrix.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("core: steady-state system singular: %w", err)
	}
	return x, nil
}

// steadyPower runs power iteration on the operator form of Y_K·R_K,
// ping-ponging workspace buffers so each iteration is allocation-free.
func (s *Solver) steadyPower(ctx context.Context, k int) ([]float64, error) {
	d := s.d(k)
	ws := s.getWS()
	defer s.putWS(ws)
	pi := ws.cur[:d]
	for i := range pi {
		pi[i] = 1 / float64(d)
	}
	nxt := ws.next[:d]
	const maxIter = 200000
	const tol = 1e-13
	diff := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		if iter%1024 == 0 {
			if err := check.Canceled(ctx); err != nil {
				return nil, err
			}
		}
		mPowerIters.Inc()
		s.feedInto(nxt, k, pi, ws)
		matrix.Normalize1(nxt) // guard against round-off drift
		if diff = matrix.VecMaxAbsDiff(nxt, pi); diff < tol {
			return append([]float64(nil), nxt...), nil
		}
		pi, nxt = nxt, pi
	}
	return nil, fmt.Errorf("core: steady-state power iteration hit %d iterations (residual %.3g, tol %.3g): %w",
		maxIter, diff, tol, check.ErrNotConverged)
}

// TimeStationary returns the time-stationary distribution of the
// feeding-region CTMC at level K — the generator M_K(P_K + Q_K·R_K − I)
// of the system while departures are still being replaced. This is
// NOT the same distribution as SteadyState's fixed point: that one is
// embedded at departure instants, while this one is weighted by the
// time spent in each state. Time averages (mean queue lengths,
// utilizations) must be computed here; for exponential networks they
// then coincide with MVA's, which the tests assert.
func (s *Solver) TimeStationary() ([]float64, error) {
	return s.TimeStationaryCtx(context.Background())
}

// TimeStationaryCtx is TimeStationary under a context; the fixed-point
// iteration polls ctx periodically.
func (s *Solver) TimeStationaryCtx(ctx context.Context) ([]float64, error) {
	k := s.K
	lvl := s.Chain.Levels[k]
	d := lvl.States.Count()
	dPrev := lvl.Q.Cols()
	ws := s.getWS()
	defer s.putWS(ws)
	// ν = π·M solves the embedded jump chain ν = ν(P + Q·R); then
	// π ∝ ν·M⁻¹.
	nu := ws.cur[:d]
	for i := range nu {
		nu[i] = 1 / float64(d)
	}
	next := ws.next[:d]
	hop := ws.dcur[:d]
	const maxIter = 500000
	const tol = 1e-13
	converged := false
	diff := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		if iter%1024 == 0 {
			if err := check.Canceled(ctx); err != nil {
				return nil, err
			}
		}
		mPowerIters.Inc()
		lvl.P.VecMulInto(next, nu)
		lvl.Q.VecMulInto(ws.t[:dPrev], nu)
		lvl.R.VecMulInto(hop, ws.t[:dPrev])
		for i := range next {
			next[i] += hop[i]
		}
		matrix.Normalize1(next)
		if diff = matrix.VecMaxAbsDiff(next, nu); diff < tol {
			nu = next
			converged = true
			break
		}
		nu, next = next, nu
	}
	if !converged {
		return nil, fmt.Errorf("core: time-stationary iteration hit %d iterations (residual %.3g, tol %.3g): %w",
			maxIter, diff, tol, check.ErrNotConverged)
	}
	pi := make([]float64, d)
	for i := range pi {
		pi[i] = nu[i] / lvl.MDiag[i]
	}
	return matrix.Normalize1(pi), nil
}

// ApproxTotalTime is the steady-state approximation of E(T) in the
// spirit of the paper's reference [17]: the N−K feeding epochs are
// costed at t_ss instead of being propagated individually, and the
// draining tail is propagated from the steady-state distribution.
// It trades the per-epoch transient for O(K) work independent of N.
func (s *Solver) ApproxTotalTime(n int) (float64, error) {
	if n <= s.K {
		// No feeding region to approximate; fall back to exact.
		return s.TotalTime(n)
	}
	piSS, tss, err := s.SteadyState()
	if err != nil {
		return 0, err
	}
	// First epoch from the true entry vector, remaining feeding epochs
	// at the steady-state rate.
	pK := s.Chain.EntryVector(s.K)
	total := s.EpochTime(s.K, pK) + float64(n-s.K)*tss
	// Drain from the steady-state distribution.
	pi := piSS
	for k := s.K; k >= 1; k-- {
		if k != s.K {
			total += s.EpochTime(k, pi)
		}
		pi = s.Depart(k, pi)
	}
	// The K-level epoch at steady state was already counted once in
	// the feeding sum; the loop above added draining epochs for
	// k = K−1 … 1 only.
	return total, nil
}
