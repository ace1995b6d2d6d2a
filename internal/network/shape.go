package network

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"finwl/internal/arena"
	"finwl/internal/check"
	"finwl/internal/obs"
	"finwl/internal/par"
	"finwl/internal/sparse"
	"finwl/internal/statespace"
)

// Shape memo metrics: a hit skips the whole symbolic phase of a chain
// build; a miss records it; an eviction drops the least recently used
// shape to keep the memo inside its byte budget (a shape larger than
// the whole budget is dropped as soon as it is built).
var (
	mShapeHit = obs.Default.Counter("finwl_shape_memo_total",
		"Chain-shape memo lookups (hit, miss) and evictions.", obs.L("result", "hit"))
	mShapeMiss = obs.Default.Counter("finwl_shape_memo_total",
		"Chain-shape memo lookups (hit, miss) and evictions.", obs.L("result", "miss"))
	mShapeEvict = obs.Default.Counter("finwl_shape_memo_total",
		"Chain-shape memo lookups (hit, miss) and evictions.", obs.L("result", "evict"))
)

// ErrTapeMismatch reports a memoized level tape that does not fit the
// level it is replayed into: a slot outside its matrix, unit runs out
// of order, or a tape not consumed exactly. It means the memo is
// corrupt.
var ErrTapeMismatch = errors.New("network: level tape does not match its patterns")

// shapeMemoBudget bounds the bytes of symbolic data the memo keeps.
// The perfbench cold-distinct mix (18 shape classes up to K=8) needs
// a few MB; the budget leaves room for a much wider mix.
const shapeMemoBudget = 32 << 20

// shapes is the process-wide chain-shape memo.
var shapes = newShapeMemo(shapeMemoBudget)

// params is the flat parameter vector θ that every level weight is a
// product of, with the layout of the network's parameters in it:
// θ[0] = 1, then the entry and exit probabilities, the routing matrix
// row-major, and per station its entry vector, phase rates, internal
// transition matrix row-major and per-phase completion probabilities.
// The layout depends only on the station shapes.
type params struct {
	theta              []float64
	entry, exit, route int32
	stations           []stationParams
}

// stationParams locates one station's service parameters in θ.
type stationParams struct {
	dim                      int
	alpha, rate, trans, exit int32
}

func newParams(net *Network) *params {
	m := len(net.Stations)
	size := 1 + 2*m + m*m
	for _, st := range net.Stations {
		d := st.Service.Dim()
		size += 3*d + d*d
	}
	th := &params{
		theta:    make([]float64, 0, size),
		stations: make([]stationParams, m),
	}
	at := func() int32 { return int32(len(th.theta)) }
	th.theta = append(th.theta, 1)
	th.entry = at()
	th.theta = append(th.theta, net.Entry...)
	th.exit = at()
	th.theta = append(th.theta, net.Exit...)
	th.route = at()
	for i := 0; i < m; i++ {
		th.theta = append(th.theta, net.Route.RawRow(i)...)
	}
	for i, st := range net.Stations {
		svc := st.Service
		d := svc.Dim()
		sp := &th.stations[i]
		sp.dim = d
		sp.alpha = at()
		th.theta = append(th.theta, svc.Alpha...)
		sp.rate = at()
		th.theta = append(th.theta, svc.Rates...)
		sp.trans = at()
		for ph := 0; ph < d; ph++ {
			th.theta = append(th.theta, svc.Trans.RawRow(ph)...)
		}
		sp.exit = at()
		for ph := 0; ph < d; ph++ {
			th.theta = append(th.theta, svc.ExitProb(ph))
		}
	}
	return th
}

// live is the one predicate every event the walker might skip is
// tested with: a parameter emits only where it is positive (all of
// them are non-negative in a validated network).
func (th *params) live(i int32) bool { return th.theta[i] > 0 }

// appendKey appends the memo key of the chain the network builds at
// maxK over the lumped station classes: maxK, each station's kind,
// phase count and (multi-server only) server count, the live bit of
// every parameter, and the class partition. Networks with one key walk
// identical structure, because the walker's every branch is decided by
// these alone; the partition keeps a network whose stations are not
// exchangeable from replaying a lumped tape, and the reverse.
func (th *params) appendKey(b []byte, net *Network, maxK int, classes [][]int) []byte {
	b = binary.AppendVarint(b, int64(maxK))
	b = binary.AppendUvarint(b, uint64(len(net.Stations)))
	for _, st := range net.Stations {
		servers := 0
		if st.Kind == statespace.Multi {
			servers = st.Servers
		}
		b = binary.AppendVarint(b, int64(st.Kind))
		b = binary.AppendUvarint(b, uint64(st.Service.Dim()))
		b = binary.AppendVarint(b, int64(servers))
	}
	var bits byte
	for i := range th.theta {
		if th.live(int32(i)) {
			bits |= 1 << (i % 8)
		}
		if i%8 == 7 || i == len(th.theta)-1 {
			b = append(b, bits)
			bits = 0
		}
	}
	b = binary.AppendUvarint(b, uint64(len(classes)))
	for _, cl := range classes {
		b = binary.AppendUvarint(b, uint64(len(cl)))
		for _, st := range cl {
			b = binary.AppendUvarint(b, uint64(st))
		}
	}
	return b
}

// chainShape is the memoized symbolic phase of one chain shape. It is
// immutable once built and shared by every chain of the shape.
type chainShape struct {
	space  *statespace.Space
	levels []levelShape // levels[0] holds only the empty level's state
	bytes  int64
}

// levelShape is one level's symbolic data.
type levelShape struct {
	states  *statespace.Level
	p, q, r *sparse.Pattern
	sym     *sparse.Symbolic // analysis of I − P
	tape    levelTape
}

// Matrices a tape term lands in.
const (
	matP = iota
	matQ
	matR
)

// levelTape is one level's emission structure in replayable form:
// every weight the walker emits, in emission order, with the
// parameters it multiplies and the value slot it lands in. Arrivals
// come first (base 1); then, state by state, each active unit with its
// events (base: the unit's share of the state's total rate). Replay
// adds each weight into its slot in this order, which reproduces the
// walker's accumulation exactly.
type levelTape struct {
	arrivals []term    // R_k weights
	events   []term    // P_k and Q_k weights, unit by unit
	units    []unitRun // the active units, state by state
	rowUnits []int32   // per level-k state: the start of its units (d+1 entries)
}

type term struct {
	f    factors
	slot int32
	mat  uint8
}

// unitRun is one active unit of a state: count customers completing
// at rate θ[rate], whose events run up to events[end].
type unitRun struct {
	rate, count, end int32
}

func (t *levelTape) terms() int { return len(t.arrivals) + len(t.events) }

func (t *levelTape) bytes() int64 {
	return 24*int64(t.terms()) + 12*int64(len(t.units)) + 4*int64(len(t.rowUnits))
}

// replay fills one level's values from θ: M_k's diagonal into mdiag
// and the P, Q, R values into vals, which must be zero. It returns
// ErrTapeMismatch unless the tape has one run of units per state,
// every slot lies in its matrix, and every event is consumed exactly
// once.
func (t *levelTape) replay(th, mdiag []float64, vals *[3][]float64) error {
	if len(t.rowUnits) != len(mdiag)+1 || int(t.rowUnits[len(mdiag)]) != len(t.units) {
		return ErrTapeMismatch
	}
	rv := vals[matR]
	for i := range t.arrivals {
		tm := &t.arrivals[i]
		if tm.mat != matR || uint(tm.slot) >= uint(len(rv)) {
			return ErrTapeMismatch
		}
		rv[tm.slot] += weight(1, th, &tm.f)
	}
	e := 0
	for si := range mdiag {
		lo, hi := t.rowUnits[si], t.rowUnits[si+1]
		if uint(lo) > uint(hi) {
			return ErrTapeMismatch
		}
		us := t.units[lo:hi]
		var total float64
		for _, u := range us {
			total += unitRate(th, u.rate, u.count)
		}
		mdiag[si] = total
		for _, u := range us {
			w0 := unitRate(th, u.rate, u.count) / total
			if int(u.end) < e || int(u.end) > len(t.events) {
				return ErrTapeMismatch
			}
			for ; e < int(u.end); e++ {
				tm := &t.events[e]
				if tm.mat > matQ || uint(tm.slot) >= uint(len(vals[tm.mat])) {
					return ErrTapeMismatch
				}
				vals[tm.mat][tm.slot] += weight(w0, th, &tm.f)
			}
		}
	}
	if e != len(t.events) {
		return ErrTapeMismatch
	}
	return nil
}

// fill is the numeric phase: the chain of this shape for one network,
// given the network's θ.
func (sh *chainShape) fill(ctx context.Context, net *Network, th []float64) (*Chain, error) {
	K := len(sh.levels) - 1
	c := &Chain{Net: net, Space: sh.space, Levels: make([]*Level, K+1)}
	c.Levels[0] = &Level{K: 0, States: sh.levels[0].states}
	err := par.ForCost(ctx, K,
		func(i int) int64 { return sh.levels[i+1].fillCost() },
		func(i int) error {
			k := i + 1
			lvl, err := sh.levels[k].fill(k, th)
			c.Levels[k] = lvl
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("network: chain construction: %w", err)
	}
	return c, nil
}

// fillCost models a level's numeric phase in ForCost's tens-of-ns
// units: a few ns per replayed weight plus the per-state rate sum.
func (ls *levelShape) fillCost() int64 {
	return int64(ls.tape.terms())/3 + int64(ls.states.Count())
}

func (ls *levelShape) fill(k int, th []float64) (*Level, error) {
	d, np, nq, nr := ls.states.Count(), ls.p.NNZ(), ls.q.NNZ(), ls.r.NNZ()
	buf := make([]float64, d+np+nq+nr)
	mdiag := buf[:d:d]
	vals := [3][]float64{
		matP: buf[d : d+np : d+np],
		matQ: buf[d+np : d+np+nq : d+np+nq],
		matR: buf[d+np+nq:],
	}
	if err := ls.tape.replay(th, mdiag, &vals); err != nil {
		return nil, fmt.Errorf("network: level %d: %w", k, err)
	}
	return &Level{
		K:      k,
		States: ls.states,
		MDiag:  mdiag,
		P:      ls.p.WithValues(vals[matP]),
		Q:      ls.q.WithValues(vals[matQ]),
		R:      ls.r.WithValues(vals[matR]),
		Sym:    ls.sym,
	}, nil
}

// recordChain is the symbolic phase for the network's shape at maxK,
// lumped over classes: it prices the chain, enumerates every level's
// states, records every level's patterns and tape, and analyzes every
// level's I − P for the sparse LU.
func recordChain(ctx context.Context, net *Network, th *params, maxK int, classes [][]int) (*chainShape, error) {
	space := statespace.NewLumpedSpace(net.shapes(), classes)
	sizes, err := planChain(space, maxK)
	if err != nil {
		return nil, err
	}
	states, err := enumerateLevels(ctx, space, maxK, sizes)
	if err != nil {
		return nil, err
	}
	sh := &chainShape{space: space, levels: make([]levelShape, maxK+1)}
	sh.levels[0].states = states[0]
	err = par.ForCost(ctx, maxK,
		func(i int) int64 { return levelRecordCost(sizes, i+1) },
		func(i int) error {
			k := i + 1
			ls := &sh.levels[k]
			ls.states = states[k]
			recordLevel(net, space, th, states[k-1], states[k], ls)
			sym, err := sparse.Analyze(ls.p)
			ls.sym = sym
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("network: chain construction: %w", err)
	}
	for _, ls := range sh.levels {
		sh.bytes += ls.states.Bytes()
		if ls.p != nil {
			sh.bytes += ls.p.Bytes() + ls.q.Bytes() + ls.r.Bytes() + ls.sym.Bytes() + ls.tape.bytes()
		}
	}
	return sh, nil
}

// recordWS is the scratch of one level recording: two state-width
// vectors and the three pattern builders. Workspaces are pooled, so a
// burst of shape misses reuses the builders' backing arrays.
type recordWS struct {
	scratch, depart []int
	b               [3]*sparse.RowBuilder
}

var recordPool = arena.Pool[recordWS]{New: func() *recordWS { return &recordWS{} }}

// recordLevel walks one level and stores its patterns and tape in ls.
func recordLevel(net *Network, space *statespace.Space, th *params, prev, cur *statespace.Level, ls *levelShape) {
	d, dPrev := cur.Count(), prev.Count()
	ws := recordPool.Get()
	defer recordPool.Put(ws)
	ws.scratch = arena.Ints(ws.scratch, space.Width())
	ws.depart = arena.Ints(ws.depart, space.Width())
	dims := [3][2]int{matP: {d, d}, matQ: {d, dPrev}, matR: {dPrev, d}}
	for m, dim := range dims {
		if ws.b[m] == nil {
			ws.b[m] = sparse.NewRowBuilder(dim[0], dim[1])
		} else {
			ws.b[m].Reset(dim[0], dim[1])
		}
	}
	// Pre-size the tape near typical emission counts per state.
	ls.tape = levelTape{
		arrivals: make([]term, 0, 2*dPrev),
		events:   make([]term, 0, 6*d),
		units:    make([]unitRun, 0, 3*d),
		rowUnits: make([]int32, 0, d+1),
	}
	rec := &recorder{b: ws.b, tape: &ls.tape}
	walkLevel(net, space, th, prev, cur, rec, ws.scratch, ws.depart)
	t := &ls.tape
	t.rowUnits = append(t.rowUnits, int32(len(t.units)))
	var slots [3][]int32
	ls.p, slots[matP] = ws.b[matP].Build()
	ls.q, slots[matQ] = ws.b[matQ].Build()
	ls.r, slots[matR] = ws.b[matR].Build()
	for _, terms := range [][]term{t.arrivals, t.events} {
		for i := range terms {
			terms[i].slot = slots[terms[i].mat][terms[i].slot]
		}
	}
}

// recorder is the levelVisitor of the symbolic phase: it appends every
// emitted weight to the tape and feeds its (row, column) to the
// matrix's pattern builder. A term's slot holds its ordinal among its
// matrix's entries until the patterns are built.
type recorder struct {
	b     [3]*sparse.RowBuilder
	tape  *levelTape
	units []activeUnit
}

func (r *recorder) arrival(i, j int, f factors) {
	r.tape.arrivals = append(r.tape.arrivals, term{f: f, slot: int32(r.b[matR].Len()), mat: matR})
	r.b[matR].Add(i, j)
}

func (r *recorder) row(si int, units []activeUnit) {
	r.tape.rowUnits = append(r.tape.rowUnits, int32(len(r.tape.units)))
	r.units = units
}

func (r *recorder) unit(u int) {
	au := r.units[u]
	r.tape.units = append(r.tape.units, unitRun{rate: au.rate, count: au.count, end: int32(len(r.tape.events))})
}

func (r *recorder) event(toQ bool, si, j, u int, f factors) {
	m := uint8(matP)
	if toQ {
		m = matQ
	}
	r.tape.events = append(r.tape.events, term{f: f, slot: int32(r.b[m].Len()), mat: m})
	r.tape.units[len(r.tape.units)-1].end++
	r.b[m].Add(si, j)
}

// shapeMemo maps chain-shape keys to their symbolic phase, bounded by
// a byte budget with least-recently-used eviction. Concurrent misses
// on one key build it once: the first caller records it while the
// others wait for the result.
type shapeMemo struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*memoEntry
	lru     list.List // of *memoEntry, most recently used first
}

type memoEntry struct {
	key   string
	done  chan struct{} // closed once the build finished
	shape *chainShape   // nil if the build failed
	elem  *list.Element // position in lru; nil while building or once evicted
}

func newShapeMemo(budget int64) *shapeMemo {
	return &shapeMemo{budget: budget, entries: make(map[string]*memoEntry)}
}

// get returns the shape for key, calling build on a miss. A build that
// fails is not memoized: callers waiting on it build again under their
// own context.
func (m *shapeMemo) get(ctx context.Context, key []byte, build func() (*chainShape, error)) (*chainShape, error) {
	for {
		m.mu.Lock()
		e, ok := m.entries[string(key)]
		if !ok {
			e = &memoEntry{key: string(key), done: make(chan struct{})}
			m.entries[e.key] = e
			m.mu.Unlock()
			mShapeMiss.Inc()
			return m.build(e, build)
		}
		if e.elem != nil {
			m.lru.MoveToFront(e.elem)
		}
		m.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, check.Canceled(ctx)
		}
		if e.shape != nil {
			mShapeHit.Inc()
			return e.shape, nil
		}
	}
}

func (m *shapeMemo) build(e *memoEntry, build func() (*chainShape, error)) (*chainShape, error) {
	sh, err := build()
	m.mu.Lock()
	switch {
	case err != nil:
		delete(m.entries, e.key)
	case sh.bytes > m.budget:
		delete(m.entries, e.key)
		mShapeEvict.Inc()
	default:
		e.elem = m.lru.PushFront(e)
		m.used += sh.bytes
		for m.used > m.budget {
			m.evict(m.lru.Back().Value.(*memoEntry))
		}
	}
	if err == nil {
		e.shape = sh
	}
	m.mu.Unlock()
	close(e.done)
	return sh, err
}

// evict drops a finished entry. m.mu must be held.
func (m *shapeMemo) evict(e *memoEntry) {
	m.lru.Remove(e.elem)
	e.elem = nil
	delete(m.entries, e.key)
	m.used -= e.shape.bytes
	mShapeEvict.Inc()
}

// reset drops every finished entry; builds in flight are unaffected.
func (m *shapeMemo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for el := m.lru.Front(); el != nil; el = m.lru.Front() {
		e := el.Value.(*memoEntry)
		m.lru.Remove(el)
		e.elem = nil
		delete(m.entries, e.key)
		m.used -= e.shape.bytes
	}
}
