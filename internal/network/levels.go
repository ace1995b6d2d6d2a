package network

import (
	"context"
	"fmt"
	"runtime"

	"finwl/internal/arena"
	"finwl/internal/check"
	"finwl/internal/obs"
	"finwl/internal/par"
	"finwl/internal/sparse"
	"finwl/internal/statespace"
)

// mChainBuild times full chain constructions (validation, level
// enumeration, matrix generation) — the state-space-sized front half
// of every exact solve.
var mChainBuild = obs.Default.Histogram("finwl_chain_build_seconds",
	"Wall time of level-chain construction (enumeration + matrix generation).",
	obs.ExpBounds(100_000, 4, 13), 1e-9) // 100µs .. ~6.7s

// Allocation gauges for the most recent chain construction, sampled
// from the runtime's heap counters. The counters are process-global,
// so concurrent builds inflate each other's deltas — the gauges are a
// regression tripwire, not an exact attribution.
var (
	mChainBuildObjects = obs.Default.Gauge("finwl_chain_build_allocs",
		"Heap allocations during the most recent chain construction.",
		obs.L("unit", "objects"))
	mChainBuildBytes = obs.Default.Gauge("finwl_chain_build_allocs",
		"Heap allocations during the most recent chain construction.",
		obs.L("unit", "bytes"))
)

// heapAllocCounters reads the runtime's cumulative heap allocation
// counters. runtime.ReadMemStats is used rather than runtime/metrics
// because the latter's heap counters lag behind per-P allocation
// caches, reporting zero deltas for builds small enough to fit in
// already-cached spans; the stop-the-world here is a few microseconds,
// noise against any chain construction.
func heapAllocCounters() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// ChainBuildStats returns the heap allocation cost (objects, bytes)
// of the most recent chain construction in this process.
func ChainBuildStats() (objects, bytes int64) {
	return mChainBuildObjects.Value(), mChainBuildBytes.Value()
}

// Level holds the paper's per-population matrices for k active tasks:
//
//	MDiag — the diagonal of M_k, the total event rate of each state;
//	P     — [P_k]ij, the probability that the next event moves the
//	        system from state i to state j without a departure;
//	Q     — [Q_k]ij, the probability that the next event is a task
//	        departure leaving the system in state j of level k−1;
//	R     — [R_k]ij, the probability that a task arriving while the
//	        system is in state i of level k−1 puts it in state j.
//
// Rows of P_k + Q_k sum to one, as do rows of R_k.
//
// The matrices are CSR: each state has one outgoing entry per active
// service phase times routing fan-out, so the natural representation
// is sparse at every scale. Consumers that need the dense per-level
// system A_k = I − P_k materialize it with sparse.CSR.IMinusDense.
type Level struct {
	K      int
	States *statespace.Level
	MDiag  []float64
	P      *sparse.CSR
	Q      *sparse.CSR // D(k) × D(k−1)
	R      *sparse.CSR // D(k−1) × D(k)
}

// Chain is the full ladder of level matrices for populations 1..K,
// sharing one state-space layout. Levels[0] is the trivial empty
// level (one state, no matrices); Levels[k] describes k active tasks.
type Chain struct {
	Net    *Network
	Space  *statespace.Space
	Levels []*Level
}

// MaxPopulation is the largest supported maxK: state keys pack
// per-slot customer counts into single bytes, so populations beyond
// 255 cannot be represented. (Any chain near this bound is far past
// the memory guards anyway.)
const MaxPopulation = 255

// maxPhaseIndex bounds per-station phase counts for the same reason:
// a queue station's in-service phase index shares the byte encoding.
const maxPhaseIndex = 255

// maxDenseEntries is the chain admission budget. The level-count DP
// (statespace.ChainPrice) prices a chain before anything is allocated,
// so a model that would exhaust memory is rejected with
// ErrInvalidModel instead of dying in the allocator. The price assumes
// every level may densify, because the solver falls back to dense
// factorization of A_k = I − P_k when sparsity runs out
// (Σ d_k² + 2·d_k·d_{k−1} + d_k float64s ≈ 2 GiB).
const maxDenseEntries = 1 << 28

// planChain sizes every level of the prospective chain without
// enumerating it and rejects models whose construction could not
// complete. It returns the per-level state counts for reuse.
func planChain(space *statespace.Space, maxK int) ([]int64, error) {
	if maxK < 1 {
		return nil, check.Invalid("network: chain needs maxK >= 1, got %d", maxK)
	}
	if maxK > MaxPopulation {
		return nil, check.Invalid("network: population %d exceeds the supported maximum %d", maxK, MaxPopulation)
	}
	for st := 0; st < space.Stations(); st++ {
		if p := space.Shape(st).Phases; p > maxPhaseIndex+1 {
			return nil, check.Invalid("network: station %d has %d phases, want <= %d", st, p, maxPhaseIndex+1)
		}
	}
	if entries := space.ChainPrice(maxK); entries > maxDenseEntries {
		return nil, check.Invalid("network: chain needs %.3g matrix entries (limit %.3g) — use a smaller model",
			float64(entries), float64(maxDenseEntries))
	}
	sizes := make([]int64, maxK+1)
	for k := range sizes {
		sizes[k] = space.LevelSize(k)
	}
	return sizes, nil
}

// NewChain validates the network and builds every level up to maxK.
// See NewChainCtx for the construction strategy.
func NewChain(net *Network, maxK int) (*Chain, error) {
	return NewChainCtx(context.Background(), net, maxK)
}

// NewChainCtx is NewChain under a context: construction checks ctx
// between work items and returns a check.ErrCanceled-matching error as
// soon as cancellation or a deadline is observed.
//
// Construction is parallel when it pays: the per-population state
// spaces are enumerated first (each level's enumeration is
// independent), then the level matrices are generated across a worker
// pool — level k only reads the network, the space layout, and the
// immutable state lists of levels k−1 and k, so the levels are
// embarrassingly parallel. par.ForCost drives the serial/parallel
// cutover from the planner's per-level state counts and schedules the
// largest levels first; small chains never pay the pool overhead.
func NewChainCtx(ctx context.Context, net *Network, maxK int) (*Chain, error) {
	defer mChainBuild.Start().End()
	allocObjects, allocBytes := heapAllocCounters()
	defer func() {
		o, b := heapAllocCounters()
		mChainBuildObjects.Set(int64(o - allocObjects))
		mChainBuildBytes.Set(int64(b - allocBytes))
	}()
	if err := net.Validate(); err != nil {
		return nil, err
	}
	space := net.Space()
	sizes, err := planChain(space, maxK)
	if err != nil {
		return nil, err
	}
	c := &Chain{Net: net, Space: space, Levels: make([]*Level, maxK+1)}
	states, err := enumerateLevels(ctx, space, maxK, sizes)
	if err != nil {
		return nil, err
	}
	c.Levels[0] = &Level{K: 0, States: states[0]}
	err = par.ForCost(ctx, maxK,
		func(i int) int64 { return levelBuildCost(sizes, i+1) },
		func(i int) error {
			k := i + 1
			c.Levels[k] = buildLevel(net, space, k, states[k-1], states[k])
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("network: chain construction: %w", err)
	}
	return c, nil
}

// levelBuildCost models the matrix-generation work of level k from the
// planner's state counts: every level-k state is visited with a
// handful of events, each costing a state copy plus a binary-search
// index lookup, and every level-(k−1) state seeds the arrival matrix.
// The constants put the unit near ForCost's "tens of ns" convention;
// they only need to be right within a small factor for the cutover.
func levelBuildCost(sizes []int64, k int) int64 {
	c := sizes[k]*96 + sizes[k-1]*32
	if c < 0 || c > par.MaxCost {
		return par.MaxCost
	}
	return c
}

// enumerateLevels lists the states of every population 0..maxK in
// parallel when the chain is large enough to pay for it; the
// enumerations share nothing but the read-only layout.
func enumerateLevels(ctx context.Context, space *statespace.Space, maxK int, sizes []int64) ([]*statespace.Level, error) {
	states := make([]*statespace.Level, maxK+1)
	err := par.ForCost(ctx, maxK+1,
		func(i int) int64 { return sizes[i] * 16 },
		func(i int) error {
			states[i] = space.Enumerate(i)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("network: state enumeration: %w", err)
	}
	return states, nil
}

// D returns the number of states at level k.
func (c *Chain) D(k int) int { return c.Levels[k].States.Count() }

// EntryVector returns p_k, the state distribution after k tasks have
// entered an initially empty system: e₀·R₁·R₂···R_k (§4).
func (c *Chain) EntryVector(k int) []float64 {
	pi := []float64{1}
	for j := 1; j <= k; j++ {
		pi = c.Levels[j].R.VecMul(pi)
	}
	return pi
}

// levelSink receives the transition weights of one level as they are
// generated. The production sink assembles CSR directly; tests plug in
// a dense sink to hold the structured build to the dense reference.
// Every generator loop walks destination rows in non-decreasing order
// (the R pass iterates level-(k−1) states ascending, the M/P/Q pass
// iterates level-k states ascending), which is the contract that lets
// the CSR sink stream rows without a global sort.
type levelSink interface {
	setM(i int, rate float64)
	addP(i, j int, w float64)
	addQ(i, jPrev int, w float64)
	addR(iPrev, j int, w float64)
}

// csrSink streams one level's weights into row-ordered CSR builders.
type csrSink struct {
	m       []float64
	p, q, r *sparse.RowBuilder
}

func (s *csrSink) setM(i int, rate float64) { s.m[i] = rate }
func (s *csrSink) addP(i, j int, w float64) { s.p.Add(i, j, w) }
func (s *csrSink) addQ(i, j int, w float64) { s.q.Add(i, j, w) }
func (s *csrSink) addR(i, j int, w float64) { s.r.Add(i, j, w) }

// buildWS is the per-builder scratch a level generation needs: two
// state-width vectors and three CSR row builders. Workspaces are
// pooled — each concurrent builder checks one out, generates any
// number of levels with it, and returns it — so steady-state chain
// construction allocates only what escapes into the finished Level.
type buildWS struct {
	scratch, depart []int
	p, q, r         *sparse.RowBuilder
}

var buildPool = arena.Pool[buildWS]{New: func() *buildWS { return &buildWS{} }}

// prepare sizes the workspace for a d×dPrev level over states of the
// given width, reusing prior storage where it fits.
func (ws *buildWS) prepare(width, d, dPrev int) {
	ws.scratch = arena.Ints(ws.scratch, width)
	ws.depart = arena.Ints(ws.depart, width)
	if ws.p == nil {
		ws.p = sparse.NewRowBuilder(d, d)
		ws.q = sparse.NewRowBuilder(d, dPrev)
		ws.r = sparse.NewRowBuilder(dPrev, d)
		return
	}
	ws.p.Reset(d, d)
	ws.q.Reset(d, dPrev)
	ws.r.Reset(dPrev, d)
}

func buildLevel(net *Network, space *statespace.Space, k int, prev, cur *statespace.Level) *Level {
	d := cur.Count()
	dPrev := prev.Count()
	ws := buildPool.Get()
	ws.prepare(space.Width(), d, dPrev)
	lvl := &Level{
		K:      k,
		States: cur,
		MDiag:  make([]float64, d),
	}
	emitLevel(net, space, prev, cur,
		&csrSink{m: lvl.MDiag, p: ws.p, q: ws.q, r: ws.r},
		ws.scratch, ws.depart)
	lvl.P = ws.p.Build()
	lvl.Q = ws.q.Build()
	lvl.R = ws.r.Build()
	buildPool.Put(ws)
	return lvl
}

// emitLevel generates every M/P/Q/R weight of one population level.
// scratch and depart are caller-provided state-width work vectors
// (distinct, content ignored); nothing passed to the sink outlives the
// call. Weights for the same (row, column) pair are emitted in a fixed
// order, so accumulating sinks agree bitwise whatever their storage.
func emitLevel(net *Network, space *statespace.Space, prev, cur *statespace.Level, sink levelSink, scratch, depart []int) {
	d := cur.Count()
	dPrev := prev.Count()

	// addArrival distributes weight w over the states reached when a
	// task arrives at station dst with the system in `state`, calling
	// emit for each target state. It builds targets in scratch and
	// never writes state, so callers may pass the depart buffer.
	addArrival := func(state []int, dst int, w float64, emit func(target []int, w float64)) {
		st := net.Stations[dst]
		switch st.Kind {
		case statespace.Delay:
			for ph, a := range st.Service.Alpha {
				if a == 0 {
					continue
				}
				copy(scratch, state)
				space.SetDelayCount(scratch, dst, ph, space.DelayCount(scratch, dst, ph)+1)
				emit(scratch, w*a)
			}
		case statespace.Queue:
			n := space.QueueCount(state, dst)
			if n == 0 {
				// The arriving task goes straight into service.
				for ph, a := range st.Service.Alpha {
					if a == 0 {
						continue
					}
					copy(scratch, state)
					space.SetQueue(scratch, dst, 1, ph)
					emit(scratch, w*a)
				}
			} else {
				copy(scratch, state)
				space.SetQueue(scratch, dst, n+1, space.QueuePhase(state, dst))
				emit(scratch, w)
			}
		case statespace.Multi:
			copy(scratch, state)
			space.SetMultiCount(scratch, dst, space.MultiCount(state, dst)+1)
			emit(scratch, w)
		}
	}

	// R_k: arrivals into level k−1 states.
	for i := 0; i < dPrev; i++ {
		state := prev.State(i)
		for e, pe := range net.Entry {
			if pe == 0 {
				continue
			}
			addArrival(state, e, pe, func(target []int, w float64) {
				sink.addR(i, cur.MustIndex(target), w)
			})
		}
	}

	// M_k, P_k, Q_k: events out of level k states. The active units of a
	// state are walked once into a reusable buffer — the total rate
	// accumulates in the same visit order as a second walk would use, so
	// the division by total stays bitwise identical — and the emission
	// loop then replays the buffer.
	units := make([]activeUnit, 0, maxActiveUnits(net))
	for si := 0; si < d; si++ {
		state := cur.State(si)

		var total float64
		units = units[:0]
		forEachActiveUnit(net, space, state, func(st, ph int, rate float64) {
			units = append(units, activeUnit{st: st, ph: ph, rate: rate})
			total += rate
		})
		sink.setM(si, total)

		for _, u := range units {
			st, ph := u.st, u.ph
			w0 := u.rate / total
			svc := net.Stations[st].Service

			// Internal phase movement within the station.
			for ph2 := 0; ph2 < svc.Dim(); ph2++ {
				tp := svc.Trans.At(ph, ph2)
				if tp == 0 {
					continue
				}
				moved := moveWithinStation(net, space, state, st, ph, ph2, depart)
				sink.addP(si, cur.MustIndex(moved), w0*tp)
			}

			done := svc.ExitProb(ph)
			if done == 0 {
				continue
			}
			// Remove the completing customer from the station; for a
			// queue with waiting customers the successor's starting
			// phase fans out over the entry vector. base is the depart
			// buffer, which addArrival leaves untouched.
			forEachPostCompletion(net, space, state, st, ph, depart, func(base []int, bw float64) {
				// Route to the next station …
				for dst := 0; dst < len(net.Stations); dst++ {
					r := net.Route.At(st, dst)
					if r == 0 {
						continue
					}
					addArrival(base, dst, w0*done*bw*r, func(target []int, w float64) {
						sink.addP(si, cur.MustIndex(target), w)
					})
				}
				// … or leave the system.
				if e := net.Exit[st]; e > 0 {
					sink.addQ(si, prev.MustIndex(base), w0*done*bw*e)
				}
			})
		}
	}
}

// activeUnit is one independently-completing exponential phase of a
// state, as visited by forEachActiveUnit.
type activeUnit struct {
	st, ph int
	rate   float64
}

// maxActiveUnits bounds how many units forEachActiveUnit can visit in
// any state: every phase of each delay station, one unit per queue or
// multi-server station.
func maxActiveUnits(net *Network) int {
	n := 0
	for _, st := range net.Stations {
		if st.Kind == statespace.Delay {
			n += st.Service.Dim()
		} else {
			n++
		}
	}
	return n
}

// forEachActiveUnit visits every independently-completing exponential
// phase in the state with its aggregate rate: each occupied phase of
// a delay station (rate count·µ) and the in-service phase of each
// non-empty queue station (rate µ).
func forEachActiveUnit(net *Network, space *statespace.Space, state []int, f func(st, ph int, rate float64)) {
	for st := range net.Stations {
		svc := net.Stations[st].Service
		switch net.Stations[st].Kind {
		case statespace.Delay:
			for ph := 0; ph < svc.Dim(); ph++ {
				if c := space.DelayCount(state, st, ph); c > 0 {
					f(st, ph, float64(c)*svc.Rates[ph])
				}
			}
		case statespace.Queue:
			if n := space.QueueCount(state, st); n > 0 {
				ph := space.QueuePhase(state, st)
				f(st, ph, svc.Rates[ph])
			}
		case statespace.Multi:
			if n := space.MultiCount(state, st); n > 0 {
				busy := n
				if c := net.Stations[st].Servers; busy > c {
					busy = c
				}
				f(st, 0, float64(busy)*svc.Rates[0])
			}
		}
	}
}

// moveWithinStation returns the state after one customer at (st, ph)
// moves to phase ph2 of the same station, using buf as scratch.
func moveWithinStation(net *Network, space *statespace.Space, state []int, st, ph, ph2 int, buf []int) []int {
	copy(buf, state)
	switch net.Stations[st].Kind {
	case statespace.Delay:
		space.SetDelayCount(buf, st, ph, space.DelayCount(buf, st, ph)-1)
		space.SetDelayCount(buf, st, ph2, space.DelayCount(buf, st, ph2)+1)
	case statespace.Queue:
		space.SetQueue(buf, st, space.QueueCount(buf, st), ph2)
	case statespace.Multi:
		// Exponential only: no internal phase moves exist.
	}
	return buf
}

// forEachPostCompletion removes the customer completing service at
// (st, ph) and emits the resulting station state(s) with weights: a
// single state for delay stations and empty-after queues, and one
// state per successor entry phase for queues with waiting customers.
func forEachPostCompletion(net *Network, space *statespace.Space, state []int, st, ph int, buf []int, emit func(base []int, w float64)) {
	svc := net.Stations[st].Service
	switch net.Stations[st].Kind {
	case statespace.Delay:
		copy(buf, state)
		space.SetDelayCount(buf, st, ph, space.DelayCount(buf, st, ph)-1)
		emit(buf, 1)
	case statespace.Queue:
		n := space.QueueCount(state, st)
		if n == 1 {
			copy(buf, state)
			space.SetQueue(buf, st, 0, 0)
			emit(buf, 1)
			return
		}
		for ph2, a := range svc.Alpha {
			if a == 0 {
				continue
			}
			copy(buf, state)
			space.SetQueue(buf, st, n-1, ph2)
			emit(buf, a)
		}
	case statespace.Multi:
		copy(buf, state)
		space.SetMultiCount(buf, st, space.MultiCount(state, st)-1)
		emit(buf, 1)
	}
}
