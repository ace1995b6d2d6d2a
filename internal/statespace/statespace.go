// Package statespace enumerates the reduced product space the paper
// builds its level matrices over (§5.4): because tasks are iid, only
// the number of customers at each service station matters, not which
// task is where, collapsing the Kronecker space of size (servers)^K
// down to compositions — D_RP(k) = C(M+k−1, k) for M exponential
// stations.
//
// Two station kinds extend the plain composition space to phase-type
// service:
//
//   - Delay stations (dedicated servers — the paper's load-dependent
//     CPU and local-disk pools): every customer is in service at once,
//     so the state keeps a count per phase, exactly the stage-splitting
//     of §5.4.1.
//   - Queue stations (shared servers — the communication channel and
//     shared disks): FCFS with one customer in service, so the state
//     keeps the total count plus the in-service customer's phase. This
//     is the case where Jackson/product-form networks do not apply.
//
// A state is a fixed-width []int: each delay station contributes one
// slot per phase; each queue station contributes a (count, phase)
// pair. Level holds every state with exactly k customers, with a
// deterministic order and an index map, which is what the level
// matrices M_k, P_k, Q_k, R_k are built over.
//
// A lumped space (NewLumpedSpace) goes one step further, lumping over
// station identities the way §5.4 lumps over task identities: within
// each class of exchangeable stations only the multiset of their
// station-states matters. It keeps one canonical state per orbit, the
// one whose class members' station-states ascend in station order.
package statespace

import (
	"fmt"
	"math"
	"math/big"

	"finwl/internal/obs"
)

// Enumeration metrics: level count and size are the paper's
// state-space cost drivers — D_RP(k) is what every downstream matrix
// is quadratic in — so both are observable without re-deriving the DP.
var (
	mLevels = obs.Default.Counter("finwl_statespace_levels_total",
		"Population levels enumerated.")
	mLevelStates = obs.Default.Histogram("finwl_statespace_level_states",
		"States per enumerated population level (the paper's D_RP(k)).",
		obs.ExpBounds(1, 4, 14), 1) // 1 .. ~67M states
)

// Kind distinguishes the two station state layouts.
type Kind int

const (
	// Delay is an infinite-server (dedicated) station: all customers
	// present are in service simultaneously.
	Delay Kind = iota
	// Queue is a single-server FCFS (shared) station: one customer in
	// service, the rest waiting.
	Queue
	// Multi is a c-server FCFS station (exponential service only):
	// min(n, c) customers in service — the paper's multitasking
	// extension, covering W workstations shared by more tasks.
	Multi
)

func (k Kind) String() string {
	switch k {
	case Delay:
		return "delay"
	case Queue:
		return "queue"
	case Multi:
		return "multi"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// StationShape describes how one station contributes to the state.
type StationShape struct {
	Kind    Kind
	Phases  int // number of service phases, ≥ 1
	Servers int // Multi only: parallel servers, ≥ 1
}

// Space is the state layout for a fixed set of stations.
type Space struct {
	shapes  []StationShape
	offsets []int // start of each station's segment in a state vector
	width   int   // total state vector length
	// classes lists the lumped classes of exchangeable stations, each
	// of two or more members in ascending station order; prev maps a
	// station to the member before it in its class, or −1.
	classes [][]int
	prev    []int
}

// NewSpace builds a Space from station shapes.
func NewSpace(shapes []StationShape) *Space {
	return NewLumpedSpace(shapes, nil)
}

// NewLumpedSpace builds a Space whose states are lumped over each
// class of exchangeable stations: members of a class must share one
// shape, and the caller vouches that permuting them maps the network
// onto itself. Classes of one station are ignored.
func NewLumpedSpace(shapes []StationShape, classes [][]int) *Space {
	if len(shapes) == 0 {
		panic("statespace: no stations")
	}
	s := &Space{shapes: append([]StationShape(nil), shapes...)}
	s.prev = make([]int, len(shapes))
	for i := range s.prev {
		s.prev[i] = -1
	}
	seen := make([]bool, len(shapes))
	for _, cl := range classes {
		if len(cl) < 2 {
			continue
		}
		for i, st := range cl {
			if st < 0 || st >= len(shapes) || seen[st] || (i > 0 && st <= cl[i-1]) {
				panic(fmt.Sprintf("statespace: bad station class %v", cl))
			}
			if shapes[st] != shapes[cl[0]] {
				panic(fmt.Sprintf("statespace: class %v mixes station shapes", cl))
			}
			seen[st] = true
			if i > 0 {
				s.prev[st] = cl[i-1]
			}
		}
		s.classes = append(s.classes, append([]int(nil), cl...))
	}
	s.offsets = make([]int, len(shapes))
	for i, sh := range shapes {
		if sh.Phases < 1 {
			panic(fmt.Sprintf("statespace: station %d has %d phases", i, sh.Phases))
		}
		s.offsets[i] = s.width
		switch sh.Kind {
		case Delay:
			s.width += sh.Phases
		case Queue:
			s.width += 2
		case Multi:
			if sh.Phases != 1 {
				panic(fmt.Sprintf("statespace: multi-server station %d must be exponential (1 phase), got %d", i, sh.Phases))
			}
			if sh.Servers < 1 {
				panic(fmt.Sprintf("statespace: multi-server station %d needs >= 1 servers", i))
			}
			s.width++
		default:
			panic(fmt.Sprintf("statespace: unknown kind %v", sh.Kind))
		}
	}
	return s
}

// Stations returns the number of stations.
func (s *Space) Stations() int { return len(s.shapes) }

// Shape returns station st's shape.
func (s *Space) Shape(st int) StationShape { return s.shapes[st] }

// Width returns the state vector length.
func (s *Space) Width() int { return s.width }

// Lumped reports whether the space lumps any class of exchangeable
// stations.
func (s *Space) Lumped() bool { return len(s.classes) > 0 }

// Classes returns the lumped station classes (shared; do not modify).
func (s *Space) Classes() [][]int { return s.classes }

// segment returns the slots of station st in state: from its offset
// to the next station's, or to the end of the vector.
func (s *Space) segment(state []int, st int) []int {
	end := s.width
	if st+1 < len(s.offsets) {
		end = s.offsets[st+1]
	}
	return state[s.offsets[st]:end:end]
}

// Canonicalize rewrites state in place into its orbit's canonical
// representative: within every class the members' station-states are
// sorted ascending in station order. It allocates nothing and is a
// no-op on a space without classes.
func (s *Space) Canonicalize(state []int) {
	for _, cl := range s.classes {
		for i := 1; i < len(cl); i++ {
			for j := i; j > 0; j-- {
				a, b := s.segment(state, cl[j-1]), s.segment(state, cl[j])
				if compareStates(a, b) <= 0 {
					break
				}
				for x := range a {
					a[x], b[x] = b[x], a[x]
				}
			}
		}
	}
}

// AverageClasses replaces every lumped class's entries of the
// per-station vector v by their mean. On a lumped chain a per-station
// expectation read off canonical states is only meaningful orbit by
// orbit; the full chain puts equal mass on every arrangement of an
// orbit, so each member's exact value is the class average.
func (s *Space) AverageClasses(v []float64) {
	for _, cl := range s.classes {
		var sum float64
		for _, st := range cl {
			sum += v[st]
		}
		mean := sum / float64(len(cl))
		for _, st := range cl {
			v[st] = mean
		}
	}
}

// CustomersAt returns the number of customers at station st in state.
func (s *Space) CustomersAt(state []int, st int) int {
	off := s.offsets[st]
	switch s.shapes[st].Kind {
	case Delay:
		n := 0
		for p := 0; p < s.shapes[st].Phases; p++ {
			n += state[off+p]
		}
		return n
	default: // Queue and Multi keep the count in the first slot
		return state[off]
	}
}

// TotalCustomers returns the number of customers in the whole state.
func (s *Space) TotalCustomers(state []int) int {
	n := 0
	for st := range s.shapes {
		n += s.CustomersAt(state, st)
	}
	return n
}

// DelayCount returns the number of customers in phase ph of delay
// station st.
func (s *Space) DelayCount(state []int, st, ph int) int {
	if s.shapes[st].Kind != Delay {
		panic("statespace: DelayCount on a queue station")
	}
	return state[s.offsets[st]+ph]
}

// QueueCount returns the number of customers at queue station st.
func (s *Space) QueueCount(state []int, st int) int {
	if s.shapes[st].Kind != Queue {
		panic("statespace: QueueCount on a delay station")
	}
	return state[s.offsets[st]]
}

// QueuePhase returns the in-service phase at queue station st; it is
// meaningful only when the station is non-empty (0 otherwise).
func (s *Space) QueuePhase(state []int, st int) int {
	if s.shapes[st].Kind != Queue {
		panic("statespace: QueuePhase on a delay station")
	}
	return state[s.offsets[st]+1]
}

// SetDelayCount sets the phase-ph customer count of delay station st.
func (s *Space) SetDelayCount(state []int, st, ph, n int) {
	state[s.offsets[st]+ph] = n
}

// SetQueue sets queue station st's count and in-service phase. The
// phase of an empty station is canonicalized to 0.
func (s *Space) SetQueue(state []int, st, n, ph int) {
	if n == 0 {
		ph = 0
	}
	state[s.offsets[st]] = n
	state[s.offsets[st]+1] = ph
}

// MultiCount returns the number of customers at multi-server station
// st.
func (s *Space) MultiCount(state []int, st int) int {
	if s.shapes[st].Kind != Multi {
		panic("statespace: MultiCount on a non-multi station")
	}
	return state[s.offsets[st]]
}

// SetMultiCount sets the customer count of multi-server station st.
func (s *Space) SetMultiCount(state []int, st, n int) {
	if s.shapes[st].Kind != Multi {
		panic("statespace: SetMultiCount on a non-multi station")
	}
	state[s.offsets[st]] = n
}

// Key returns a canonical map key for a state. Counts are assumed to
// fit a byte segment count of up to 255 per slot, far beyond any
// feasible population for a dense model.
func (s *Space) Key(state []int) string {
	b := make([]byte, len(state))
	for i, v := range state {
		if v < 0 || v > 255 {
			panic(fmt.Sprintf("statespace: slot value %d out of key range", v))
		}
		b[i] = byte(v)
	}
	return string(b)
}

// Level is the enumerated set of states holding exactly K customers.
// The states live in one contiguous slab in lexicographically
// ascending order — an invariant of the enumeration recursion that
// Enumerate verifies — so lookups are allocation-free binary searches
// instead of string-keyed map probes.
type Level struct {
	Space *Space
	K     int
	slab  []int // all state vectors, row-major, lexicographic order
	n     int   // state count
	// keys packs each state into one uint64 (big-endian, one byte per
	// slot) when the layout permits — slot values are then comparable
	// as single integers and Index degenerates to a binary search over
	// machine words. nil when width > 8 or a slot value exceeds 255.
	keys []uint64
}

// packState folds a state into its order-preserving uint64 key: one
// big-endian byte per slot, so uint64 comparison equals lexicographic
// slot comparison. Only valid when every slot fits a byte and the
// width fits the word.
func packState(state []int) uint64 {
	var k uint64
	for _, v := range state {
		k = k<<8 | uint64(v)
	}
	return k
}

// Enumerate lists every state with exactly k customers, in
// lexicographically ascending order; on a lumped space, every
// canonical state.
func (s *Space) Enumerate(k int) *Level {
	if k < 0 {
		panic("statespace: negative population")
	}
	l := &Level{Space: s, K: k}
	// LevelSize is exact, so the slab never reallocates mid-append and
	// the row headers can be cut once, after the recursion.
	if n := s.LevelSize(k); satMul(n, int64(s.width)) < int64(1)<<40 {
		l.slab = make([]int, 0, int(n)*s.width)
	}
	state := make([]int, s.width)
	l.enumerate(state, 0, k)
	n := len(l.slab) / s.width
	l.n = n
	packable := s.width <= 8 && k <= 255
	for _, sh := range s.shapes {
		if sh.Phases > 256 {
			packable = false
		}
	}
	if packable {
		l.keys = make([]uint64, n)
	}
	for i := 0; i < n; i++ {
		if i > 0 && compareStates(l.State(i-1), l.State(i)) >= 0 {
			panic(fmt.Sprintf("statespace: enumeration order broken at level %d, state %d", k, i))
		}
		if packable {
			l.keys[i] = packState(l.State(i))
		}
	}
	mLevels.Inc()
	mLevelStates.Observe(int64(n))
	return l
}

// compareStates is the lexicographic order the enumeration emits
// states in; Index binary-searches against it.
func compareStates(a, b []int) int {
	for i, av := range a {
		if av != b[i] {
			if av < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func (l *Level) enumerate(state []int, st, remaining int) {
	s := l.Space
	// Station st−1 is complete: in a lumped class its station-state
	// may not sort below the previous member's, so only canonical
	// states are ever generated.
	if st > 0 {
		if p := s.prev[st-1]; p >= 0 && compareStates(s.segment(state, st-1), s.segment(state, p)) < 0 {
			return
		}
	}
	if st == len(s.shapes) {
		if remaining == 0 {
			l.slab = append(l.slab, state...)
		}
		return
	}
	sh := s.shapes[st]
	off := s.offsets[st]
	switch sh.Kind {
	case Delay:
		l.enumerateDelay(state, st, off, 0, remaining)
	case Queue:
		for n := 0; n <= remaining; n++ {
			state[off] = n
			if n == 0 {
				state[off+1] = 0
				l.enumerate(state, st+1, remaining)
			} else {
				for ph := 0; ph < sh.Phases; ph++ {
					state[off+1] = ph
					l.enumerate(state, st+1, remaining-n)
				}
			}
		}
		state[off], state[off+1] = 0, 0
	case Multi:
		for n := 0; n <= remaining; n++ {
			state[off] = n
			l.enumerate(state, st+1, remaining-n)
		}
		state[off] = 0
	}
}

// enumerateDelay distributes up to `remaining` customers over the
// phases of delay station st starting at phase index ph.
func (l *Level) enumerateDelay(state []int, st, off, ph, remaining int) {
	s := l.Space
	m := s.shapes[st].Phases
	if ph == m-1 {
		// Last phase takes any count 0..remaining; the rest of the
		// network gets what is left.
		for n := 0; n <= remaining; n++ {
			state[off+ph] = n
			l.enumerate(state, st+1, remaining-n)
		}
		state[off+ph] = 0
		return
	}
	for n := 0; n <= remaining; n++ {
		state[off+ph] = n
		l.enumerateDelay(state, st, off, ph+1, remaining-n)
	}
	state[off+ph] = 0
}

// Count returns the number of states at this level, D(k).
func (l *Level) Count() int { return l.n }

// State returns state i. The returned slice is shared; callers must
// copy before mutating.
func (l *Level) State(i int) []int {
	w := l.Space.width
	return l.slab[i*w : (i+1)*w : (i+1)*w]
}

// Bytes returns the memory held by the level's state slab and keys.
func (l *Level) Bytes() int64 { return 8 * int64(len(l.slab)+len(l.keys)) }

// Index returns the position of a state, or −1 if it is not a state
// of this level (on a lumped space, a state that is not canonical is
// not found: Canonicalize it first). It is an allocation-free binary
// search over the lexicographically sorted state slab — the hot lookup
// of level-matrix construction, called once per generated transition.
func (l *Level) Index(state []int) int {
	if l.keys != nil {
		// Packed fast path: one word comparison per probe instead of a
		// slot-by-slot slice walk.
		key := packState(state)
		keys := l.keys
		lo, hi := 0, len(keys)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if keys[mid] < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(keys) && keys[lo] == key {
			return lo
		}
		return -1
	}
	lo, hi := 0, l.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareStates(l.State(mid), state) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < l.n && compareStates(l.State(lo), state) == 0 {
		return lo
	}
	return -1
}

// MustIndex is Index that panics on a miss; transition construction
// uses it because every generated target must exist by construction.
func (l *Level) MustIndex(state []int) int {
	i := l.Index(state)
	if i < 0 {
		panic(fmt.Sprintf("statespace: state %v not found at level %d", state, l.K))
	}
	return i
}

// Compositions returns C(m+k−1, k), the number of ways to place k
// indistinguishable customers at m stations — the paper's D_RP(k).
// Counts beyond int64 range saturate at math.MaxInt64.
func Compositions(m, k int) int {
	return int(binomial(m+k-1, k))
}

// KroneckerSize returns servers^k, the size of the unreduced product
// space the paper contrasts with (§5.4): each of the k distinguishable
// tasks independently occupies one of the servers.
func KroneckerSize(servers, k int) *big.Int {
	return new(big.Int).Exp(big.NewInt(int64(servers)), big.NewInt(int64(k)), nil)
}

func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	b := big.NewInt(0).Binomial(int64(n), int64(k))
	if !b.IsInt64() {
		return math.MaxInt64
	}
	return b.Int64()
}

// satAdd and satMul are int64 arithmetic saturating at math.MaxInt64,
// so size estimates of absurd state spaces stay ordered instead of
// wrapping around.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// ChainPrice is the admission cost of one exact transient solve over
// this space: the dense-chain entry count Σ_k (d_k² + 2·d_k·d_{k−1} +
// d_k) for populations 1..maxK, computed from the LevelSize DP before
// anything is allocated. It saturates at MaxPrice so absurd models
// stay ordered instead of overflowing.
func (s *Space) ChainPrice(maxK int) int64 {
	var total float64
	prev := float64(s.LevelSize(0))
	for k := 1; k <= maxK; k++ {
		d := float64(s.LevelSize(k))
		total += d*d + 2*d*prev + d
		prev = d
	}
	if total >= float64(MaxPrice) {
		return MaxPrice
	}
	return int64(total)
}

// SweepPrice is the group admission cost of a batched sweep over this
// space: one chain (ChainPrice — built and factored exactly once for
// the whole group) plus, for every drain checkpoint beyond the first,
// the Σ_k d_k states a drain pass walks with the already-factored
// levels. The chain term dominates by a factor of d, reflecting that
// adding a population to an existing group is far cheaper than
// admitting a new network — which is exactly the sharing the batch
// scheduler exists to exploit.
func (s *Space) SweepPrice(maxK, checkpoints int) int64 {
	price := s.ChainPrice(maxK)
	if checkpoints <= 1 {
		return price
	}
	var drain int64
	for k := 1; k <= maxK; k++ {
		drain = satAdd(drain, s.LevelSize(k))
	}
	extra := satMul(int64(checkpoints-1), drain)
	if price > MaxPrice-extra {
		return MaxPrice
	}
	return price + extra
}

// MaxPrice is the saturation bound of ChainPrice and SweepPrice.
const MaxPrice = int64(1) << 62

// stationWays returns the number of distinct station states holding
// exactly n customers: compositions over the phases for a delay
// station, (count, in-service phase) pairs for a queue, and a bare
// count for a multi-server station.
func (s *Space) stationWays(st, n int) int64 {
	sh := s.shapes[st]
	switch sh.Kind {
	case Delay:
		return binomial(n+sh.Phases-1, sh.Phases-1)
	case Queue:
		if n == 0 {
			return 1
		}
		return int64(sh.Phases)
	default: // Multi
		return 1
	}
}

// LevelSize returns D(k), the exact number of states at population k,
// computed by a convolution over stations without enumerating anything
// — the O(stations·k²) counting pass that lets callers reject a state
// space that would exhaust memory before allocating any of it. A
// lumped class enters the convolution as one factor that counts its
// orbits (classWays). Counts beyond int64 range saturate at
// math.MaxInt64.
func (s *Space) LevelSize(k int) int64 {
	if k < 0 {
		return 0
	}
	dp := make([]int64, k+1)
	dp[0] = 1
	next := make([]int64, k+1)
	ways := make([]int64, k+1)
	first := make([]int, len(s.shapes)) // class index + 1 of a class's first member
	for i, cl := range s.classes {
		first[cl[0]] = i + 1
	}
	for st := range s.shapes {
		switch {
		case s.prev[st] >= 0:
			continue // counted with its class
		case first[st] > 0:
			s.classWays(s.classes[first[st]-1], ways)
		default:
			for n := range ways {
				ways[n] = s.stationWays(st, n)
			}
		}
		for n := range next {
			next[n] = 0
		}
		for have := 0; have <= k; have++ {
			if dp[have] == 0 {
				continue
			}
			for add := 0; have+add <= k; add++ {
				if w := ways[add]; w != 0 {
					next[have+add] = satAdd(next[have+add], satMul(dp[have], w))
				}
			}
		}
		dp, next = next, dp
	}
	return dp[k]
}

// classWays fills ways[n] with the number of orbits of class cl
// holding n customers: the multisets of len(cl) station-states with n
// customers in all. It adds the station-state types one customer count
// at a time: f types with c customers each contribute r members in
// C(f+r−1, r) ways, for an O(len(cl)²·k²) pass.
func (s *Space) classWays(cl []int, ways []int64) {
	k, size := len(ways)-1, len(cl)
	// m[j][n]: multisets of j station-states over the types added so
	// far, holding n customers.
	m := make([][]int64, size+1)
	next := make([][]int64, size+1)
	for j := range m {
		m[j] = make([]int64, k+1)
		next[j] = make([]int64, k+1)
	}
	m[0][0] = 1
	for c := 0; c <= k; c++ {
		f := s.stationWays(cl[0], c)
		if f == 0 {
			continue
		}
		for j := 0; j <= size; j++ {
			for n := 0; n <= k; n++ {
				var v int64
				for r := 0; r <= j && r*c <= n; r++ {
					if w := m[j-r][n-r*c]; w != 0 {
						v = satAdd(v, satMul(w, multichoose(f, r)))
					}
				}
				next[j][n] = v
			}
		}
		m, next = next, m
	}
	copy(ways, m[size])
}

// multichoose returns C(f+r−1, r), the multisets of r items drawn from
// f types, saturating at math.MaxInt64.
func multichoose(f int64, r int) int64 {
	if r == 0 {
		return 1
	}
	if f > math.MaxInt64-int64(r) {
		return math.MaxInt64
	}
	return binomial(int(f)+r-1, r)
}
