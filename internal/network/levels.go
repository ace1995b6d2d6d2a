package network

import (
	"context"
	"fmt"

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
// is sparse at every scale. The solver factors A_k = I − P_k through
// Sym; sparse.CSR.IMinusDense materializes it densely for reference
// computations.
//
// States, the patterns of P, Q and R, and Sym are shared by every
// chain of the same shape and must not be modified; the values are
// the chain's own.
type Level struct {
	K      int
	States *statespace.Level
	MDiag  []float64
	P      *sparse.CSR
	Q      *sparse.CSR // D(k) × D(k−1)
	R      *sparse.CSR // D(k−1) × D(k)
	// Sym is the sparse-LU analysis of A_k = I − P_k: the elimination
	// order and the L/U patterns, ready for Sym.Factor(P).
	Sym *sparse.Symbolic
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
// ErrInvalidModel instead of dying in the allocator. The price
// (Σ d_k² + 2·d_k·d_{k−1} + d_k entries ≈ 2 GiB as float64s) bounds
// the worst case of the sparse LU of A_k = I − P_k, which has no fill
// budget: fully filled, it holds d_k² entries of 12 B each.
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
// Construction has a symbolic and a numeric phase. Everything but the
// values of a chain depends only on its shape — maxK, the station
// layout, and which routing, entry, exit and service parameters are
// zero — so the symbolic phase (state enumeration, the CSR patterns of
// P/Q/R, a tape mapping every emitted weight to its value slot, and
// the sparse-LU analysis of every level) runs once per shape and is
// memoized (see shapeMemo). The numeric phase runs for every network:
// it replays the emitted weights' arithmetic from the network's
// parameters into fresh value arrays over the shared patterns. A
// shape seen for the first time is recorded and then filled by the
// same numeric phase, so a memo hit and a miss build identical chains.
//
// Both phases fan out over levels: level k only reads the network, the
// layout, and the immutable state lists of levels k−1 and k, so the
// levels are embarrassingly parallel. par.ForCost drives the
// serial/parallel cutover from per-level cost models and schedules the
// largest levels first; small chains never pay the pool overhead.
//
// Exchangeable stations (see exchangeClasses) are lumped: the chain is
// built over the canonical states of Network.Space, and every
// transition target is canonicalized before its weight is merged into
// the row, so each level holds the exact orbit-lumped P_k, Q_k and
// R_k. E(T), the epoch series and the drain times are those of the
// full chain; per-station readings must average over each class
// (statespace.Space.AverageClasses). A network without exchangeable
// stations builds exactly the chain it always did.
func NewChainCtx(ctx context.Context, net *Network, maxK int) (*Chain, error) {
	return newChain(ctx, net, maxK, true)
}

// newChain builds the chain, lumped over the network's exchangeable
// stations when lump is set and over none otherwise.
func newChain(ctx context.Context, net *Network, maxK int, lump bool) (*Chain, error) {
	defer mChainBuild.Start().End()
	if err := net.Validate(); err != nil {
		return nil, err
	}
	th := newParams(net)
	var classes [][]int
	if lump {
		classes = net.exchangeClasses()
	}
	var keyBuf [128]byte
	sh, err := shapes.get(ctx, th.appendKey(keyBuf[:0], net, maxK, classes), func() (*chainShape, error) {
		return recordChain(ctx, net, th, maxK, classes)
	})
	if err != nil {
		return nil, err
	}
	return sh.fill(ctx, net, th.theta)
}

// levelRecordCost models the symbolic work of level k from the
// planner's state counts: every level-k state is visited with a
// handful of events, each costing a state copy plus a binary-search
// index lookup, and every level-(k−1) state seeds the arrival matrix.
// The constants put the unit near ForCost's "tens of ns" convention;
// they only need to be right within a small factor for the cutover.
func levelRecordCost(sizes []int64, k int) int64 {
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

// factors names the parameters one emitted weight multiplies: the
// weight is base·θ[f[0]]·θ[f[1]]·θ[f[2]]·θ[f[3]], evaluated left to
// right, where base is 1 for an arrival (R_k) and the emitting unit's
// share rate/total for an event (P_k, Q_k). Unused factors name θ[0],
// which is exactly 1, so padding never changes a bit of the product.
type factors [4]int32

// weight evaluates one emitted weight. The explicit conversion rounds
// the product before any caller adds it, so no platform fuses the
// last multiply into that addition.
func weight(base float64, th []float64, f *factors) float64 {
	return float64(base * th[f[0]] * th[f[1]] * th[f[2]] * th[f[3]])
}

// unitRate is the total rate of an active unit: count customers, each
// completing at rate θ[rate].
func unitRate(th []float64, rate, count int32) float64 {
	return float64(count) * th[rate]
}

// activeUnit is one independently-completing exponential phase of a
// state: every occupied phase of a delay station, the in-service phase
// of a non-empty queue, the busy servers of a multi-server station.
type activeUnit struct {
	st, ph int
	count  int32 // customers completing at the phase's rate
	rate   int32 // θ index of the per-customer rate
}

// levelVisitor receives the structure of one level's weights as the
// walker generates it: every arrival into R_k and every event out of
// a level-k state into P_k or Q_k, with the parameters its weight
// multiplies. Rows arrive in ascending order in both passes (the R
// pass walks level-(k−1) states, the event pass level-k states), which
// is the contract that lets patterns stream rows without a global
// sort.
type levelVisitor interface {
	arrival(i, j int, f factors)             // R_k[i][j] += 1·θ…
	row(si int, units []activeUnit)          // M_k/P_k/Q_k row si begins
	unit(u int)                              // events of units[u] follow
	event(toQ bool, si, j, u int, f factors) // P_k or Q_k += w0_u·θ…
}

// walkLevel generates the structure of every M/P/Q/R weight of one
// population level: which states an event connects and which
// parameters its weight multiplies. Every branch that skips an event
// tests its parameter with params.live, the predicate the memo key is
// built from, so a shape's recorded structure is exactly what any
// network with that key emits. scratch and depart are caller-provided
// state-width work vectors (distinct, content ignored).
func walkLevel(net *Network, space *statespace.Space, th *params, prev, cur *statespace.Level, v levelVisitor, scratch, depart []int) {
	d := cur.Count()
	dPrev := prev.Count()
	// index locates a target in its level. On a lumped space it first
	// canonicalizes the target in place, so every arrangement of one
	// orbit lands in the same column and the row builder sums them.
	lumped := space.Lumped()
	index := func(l *statespace.Level, target []int) int {
		if lumped {
			space.Canonicalize(target)
		}
		return l.MustIndex(target)
	}

	// arrive lists the states reached when a task arrives at station
	// dst with the system in state, completing f (n factors used) with
	// the entry-phase probability where the arrival fans out over
	// phases. It builds targets in scratch and never writes state, so
	// callers may pass the depart buffer.
	arrive := func(state []int, dst int, f factors, n int, emit func(target []int, f factors)) {
		sp := th.stations[dst]
		switch net.Stations[dst].Kind {
		case statespace.Delay:
			for ph := 0; ph < sp.dim; ph++ {
				if f[n] = sp.alpha + int32(ph); !th.live(f[n]) {
					continue
				}
				copy(scratch, state)
				space.SetDelayCount(scratch, dst, ph, space.DelayCount(scratch, dst, ph)+1)
				emit(scratch, f)
			}
		case statespace.Queue:
			n0 := space.QueueCount(state, dst)
			if n0 == 0 {
				// The arriving task goes straight into service.
				for ph := 0; ph < sp.dim; ph++ {
					if f[n] = sp.alpha + int32(ph); !th.live(f[n]) {
						continue
					}
					copy(scratch, state)
					space.SetQueue(scratch, dst, 1, ph)
					emit(scratch, f)
				}
			} else {
				copy(scratch, state)
				space.SetQueue(scratch, dst, n0+1, space.QueuePhase(state, dst))
				emit(scratch, f)
			}
		case statespace.Multi:
			copy(scratch, state)
			space.SetMultiCount(scratch, dst, space.MultiCount(state, dst)+1)
			emit(scratch, f)
		}
	}

	// R_k: arrivals into level k−1 states.
	for i := 0; i < dPrev; i++ {
		state := prev.State(i)
		for e := range net.Stations {
			pe := th.entry + int32(e)
			if !th.live(pe) {
				continue
			}
			arrive(state, e, factors{pe}, 1, func(target []int, f factors) {
				v.arrival(i, index(cur, target), f)
			})
		}
	}

	// M_k, P_k, Q_k: events out of level k states.
	m := len(net.Stations)
	units := make([]activeUnit, 0, maxActiveUnits(net))
	for si := 0; si < d; si++ {
		state := cur.State(si)
		units = activeUnits(net, space, th, state, units[:0])
		v.row(si, units)
		for u, au := range units {
			v.unit(u)
			st, ph := au.st, au.ph
			sp := th.stations[st]

			// Internal phase movement within the station.
			for ph2 := 0; ph2 < sp.dim; ph2++ {
				tp := sp.trans + int32(ph*sp.dim+ph2)
				if !th.live(tp) {
					continue
				}
				moved := moveWithinStation(net, space, state, st, ph, ph2, depart)
				v.event(false, si, index(cur, moved), u, factors{tp})
			}

			done := sp.exit + int32(ph)
			if !th.live(done) {
				continue
			}
			// Remove the completing customer from the station; for a
			// queue with waiting customers the successor's starting
			// phase fans out over the entry vector. base is the depart
			// buffer, which arrive leaves untouched; the departure is its
			// last use, so index may canonicalize it in place.
			forEachPostCompletion(net, space, th, state, st, ph, depart, func(base []int, bw int32) {
				// Route to the next station …
				for dst := 0; dst < m; dst++ {
					r := th.route + int32(st*m+dst)
					if !th.live(r) {
						continue
					}
					arrive(base, dst, factors{done, bw, r}, 3, func(target []int, f factors) {
						v.event(false, si, index(cur, target), u, f)
					})
				}
				// … or leave the system.
				if e := th.exit + int32(st); th.live(e) {
					v.event(true, si, index(prev, base), u, factors{done, bw, e})
				}
			})
		}
	}
}

// maxActiveUnits bounds how many units activeUnits can list in any
// state: every phase of each delay station, one unit per queue or
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

// activeUnits appends the active units of state to units, in station
// and phase order — the order the total event rate M_k accumulates in.
func activeUnits(net *Network, space *statespace.Space, th *params, state []int, units []activeUnit) []activeUnit {
	for st := range net.Stations {
		sp := th.stations[st]
		switch net.Stations[st].Kind {
		case statespace.Delay:
			for ph := 0; ph < sp.dim; ph++ {
				if c := space.DelayCount(state, st, ph); c > 0 {
					units = append(units, activeUnit{st: st, ph: ph, count: int32(c), rate: sp.rate + int32(ph)})
				}
			}
		case statespace.Queue:
			if n := space.QueueCount(state, st); n > 0 {
				ph := space.QueuePhase(state, st)
				units = append(units, activeUnit{st: st, ph: ph, count: 1, rate: sp.rate + int32(ph)})
			}
		case statespace.Multi:
			if n := space.MultiCount(state, st); n > 0 {
				busy := min(n, net.Stations[st].Servers)
				units = append(units, activeUnit{st: st, count: int32(busy), rate: sp.rate})
			}
		}
	}
	return units
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
// (st, ph) and emits the resulting station state(s) with the θ index
// of their weight: a single state (weight θ[0] = 1) for delay stations
// and empty-after queues, and one state per successor entry phase for
// queues with waiting customers.
func forEachPostCompletion(net *Network, space *statespace.Space, th *params, state []int, st, ph int, buf []int, emit func(base []int, bw int32)) {
	switch net.Stations[st].Kind {
	case statespace.Delay:
		copy(buf, state)
		space.SetDelayCount(buf, st, ph, space.DelayCount(buf, st, ph)-1)
		emit(buf, 0)
	case statespace.Queue:
		n := space.QueueCount(state, st)
		if n == 1 {
			copy(buf, state)
			space.SetQueue(buf, st, 0, 0)
			emit(buf, 0)
			return
		}
		sp := th.stations[st]
		for ph2 := 0; ph2 < sp.dim; ph2++ {
			a := sp.alpha + int32(ph2)
			if !th.live(a) {
				continue
			}
			copy(buf, state)
			space.SetQueue(buf, st, n-1, ph2)
			emit(buf, a)
		}
	case statespace.Multi:
		copy(buf, state)
		space.SetMultiCount(buf, st, space.MultiCount(state, st)-1)
		emit(buf, 0)
	}
}
