package multiclass

import (
	"context"
	"fmt"

	"finwl/internal/check"
	"finwl/internal/matrix"
	"finwl/internal/statespace"
)

// Policy selects which queued class replaces a departure (and fills
// the initial K slots).
type Policy int

const (
	// Proportional admits a random queued task: class c with
	// probability proportional to its remaining queued count.
	Proportional Policy = iota
	// PriorityOrder always admits the lowest-numbered class that still
	// has queued tasks.
	PriorityOrder
)

// Workload is a multiclass job.
type Workload struct {
	Counts []int // tasks per class
	K      int   // concurrency limit
	Policy Policy
}

// validate checks w against a network of the given class count and
// returns its total task count.
func (w Workload) validate(classes int) (total int, err error) {
	if len(w.Counts) != classes {
		return 0, check.Invalid("multiclass: %d class counts for %d classes", len(w.Counts), classes)
	}
	for c, n := range w.Counts {
		if n < 0 {
			return 0, check.Invalid("multiclass: negative count for class %d", c)
		}
		total += n
	}
	if total < 1 {
		return 0, check.Invalid("multiclass: empty workload")
	}
	if w.K < 1 {
		return 0, check.Invalid("multiclass: K must be >= 1, got %d", w.K)
	}
	return total, nil
}

// Result is the transient solution.
type Result struct {
	TotalTime float64
	Epochs    []float64 // mean inter-departure times in departure order
}

// Solver evaluates multiclass finite workloads. Levels (population
// vectors) are built and factored lazily and cached; a Solver may be
// reused across workloads of the same network.
type Solver struct {
	cfg    *Config
	space  *space
	levels map[string]*level
}

// NewSolver validates the configuration.
func NewSolver(cfg *Config) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Solver{cfg: cfg, space: newSpace(cfg), levels: map[string]*level{}}, nil
}

func popKey(pop []int) string {
	b := make([]byte, len(pop))
	for i, v := range pop {
		b[i] = byte(v)
	}
	return string(b)
}

// levelFor builds (or fetches) the level of a population vector,
// including its factorization and departure maps. A population whose
// I−P is singular (some state can postpone departures forever)
// surfaces as a check.ErrSingular-matching error.
func (s *Solver) levelFor(pop []int) (*level, error) {
	key := popKey(pop)
	if lvl, ok := s.levels[key]; ok {
		return lvl, nil
	}
	lvl := s.space.enumerate(pop)
	if err := s.buildMatrices(lvl); err != nil {
		return nil, err
	}
	s.levels[key] = lvl
	return lvl, nil
}

func (s *Solver) buildMatrices(lvl *level) error {
	cfg := s.cfg
	sp := s.space
	d := len(lvl.states)
	lvl.mDiag = make([]float64, d)
	lvl.p = matrix.New(d, d)
	lvl.q = make([]*matrix.Matrix, cfg.Classes)
	neighbors := make([]*level, cfg.Classes)
	for c := 0; c < cfg.Classes; c++ {
		if lvl.pop[c] > 0 {
			down := append([]int(nil), lvl.pop...)
			down[c]--
			var err error
			neighbors[c], err = s.levelFor(down)
			if err != nil {
				return err
			}
			lvl.q[c] = matrix.New(d, len(neighbors[c].states))
		}
	}

	// Separate buffers: the removal fan-out keeps iterating over
	// removeBuf after each emit, so the arrival construction must not
	// reuse it.
	removeBuf := make([]int, sp.width)
	arriveBuf := make([]int, sp.width)
	for i, state := range lvl.states {
		// Total event rate.
		var total float64
		s.forEachActive(state, func(st, c int, rate float64) { total += rate })
		if total == 0 {
			// Empty population vector: no events.
			lvl.mDiag[i] = 1
			continue
		}
		lvl.mDiag[i] = total

		s.forEachActive(state, func(st, c int, rate float64) {
			w0 := rate / total
			s.forEachRemoval(state, st, c, removeBuf, func(base []int, bw float64) {
				// Route within the network.
				for dst := 0; dst < len(cfg.Stations); dst++ {
					r := cfg.Route[c].At(st, dst)
					if r == 0 {
						continue
					}
					copy(arriveBuf, base)
					s.addArrival(arriveBuf, dst, c)
					lvl.p.Inc(i, lvl.index[sp.key(arriveBuf)], w0*bw*r)
				}
				// Leave the system.
				if e := cfg.Exit[c][st]; e > 0 {
					j := neighbors[c].index[sp.key(base)]
					lvl.q[c].Inc(i, j, w0*bw*e)
				}
			})
		})
	}

	a := matrix.Identity(d).Sub(lvl.p)
	fact, err := matrix.Factor(a)
	if err != nil {
		return fmt.Errorf("multiclass: I−P singular at pop %v (tasks can avoid departing): %w", lvl.pop, err)
	}
	lvl.fact = fact
	rhs := make([]float64, d)
	for i := range rhs {
		rhs[i] = 1 / lvl.mDiag[i]
	}
	lvl.tau = fact.Solve(rhs)
	return nil
}

// forEachActive visits every completing unit: (station, class, rate).
func (s *Solver) forEachActive(state []int, f func(st, c int, rate float64)) {
	for st := range s.cfg.Stations {
		switch s.cfg.Stations[st].Kind {
		case statespace.Delay:
			for c := 0; c < s.cfg.Classes; c++ {
				if n := s.space.count(state, st, c); n > 0 {
					f(st, c, float64(n)*s.cfg.Rates[st][c])
				}
			}
		case statespace.Queue:
			if s.space.stationTotal(state, st) > 0 {
				c := s.space.serving(state, st)
				f(st, c, s.cfg.Rates[st][c])
			}
		}
	}
}

// forEachRemoval removes one class-c customer from station st,
// fanning out over the next serving class at ROS queues.
func (s *Solver) forEachRemoval(state []int, st, c int, buf []int, emit func(base []int, w float64)) {
	sp := s.space
	switch s.cfg.Stations[st].Kind {
	case statespace.Delay:
		copy(buf, state)
		sp.setCount(buf, st, c, sp.count(buf, st, c)-1)
		emit(buf, 1)
	case statespace.Queue:
		copy(buf, state)
		sp.setCount(buf, st, c, sp.count(buf, st, c)-1)
		total := sp.stationTotal(buf, st)
		if total == 0 {
			sp.setServing(buf, st, 0)
			emit(buf, 1)
			return
		}
		for sc := 0; sc < s.cfg.Classes; sc++ {
			n := sp.count(buf, st, sc)
			if n == 0 {
				continue
			}
			sp.setServing(buf, st, sc)
			emit(buf, float64(n)/float64(total))
		}
	}
}

// addArrival mutates state with a class-c arrival at station dst.
func (s *Solver) addArrival(state []int, dst, c int) {
	sp := s.space
	wasEmpty := s.cfg.Stations[dst].Kind == statespace.Queue && sp.stationTotal(state, dst) == 0
	sp.setCount(state, dst, c, sp.count(state, dst, c)+1)
	if wasEmpty {
		sp.setServing(state, dst, c)
	}
}

// node is one point of the population-lattice walk: a population
// vector, the per-class queued remainder, and the conditional state
// distribution with its weight.
type node struct {
	pop    []int
	queued []int
	dist   []float64
	weight float64
}

// Solve walks the workload: admissions to level K, then N departures
// with policy-driven replacement, accumulating expected epoch times.
func (s *Solver) Solve(w Workload) (*Result, error) {
	return s.SolveCtx(context.Background(), w)
}

// SolveCtx is Solve under a context: cancellation is polled once per
// departure epoch and surfaces as a check.ErrCanceled-matching error.
func (s *Solver) SolveCtx(ctx context.Context, w Workload) (*Result, error) {
	total, err := w.validate(s.cfg.Classes)
	if err != nil {
		return nil, err
	}
	admit := w.K
	if admit > total {
		admit = total
	}

	// Start: empty system, everything queued.
	emptyPop := make([]int, s.cfg.Classes)
	start := node{
		pop:    emptyPop,
		queued: append([]int(nil), w.Counts...),
		dist:   []float64{1},
		weight: 1,
	}
	nodes := []node{start}
	for i := 0; i < admit; i++ {
		nodes, err = s.admitOne(nodes, w.Policy)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Epochs: make([]float64, 0, total)}
	for dep := 0; dep < total; dep++ {
		if err := check.Canceled(ctx); err != nil {
			return nil, err
		}
		// Expected epoch time across nodes.
		var t float64
		for _, nd := range nodes {
			lvl, err := s.levelFor(nd.pop)
			if err != nil {
				return nil, err
			}
			t += nd.weight * matrix.Dot(nd.dist, lvl.tau)
		}
		res.Epochs = append(res.Epochs, t)
		res.TotalTime += t

		// Departure branching by class, then replacement.
		var next []node
		for _, nd := range nodes {
			lvl, err := s.levelFor(nd.pop)
			if err != nil {
				return nil, err
			}
			y := lvl.fact.SolveLeft(nd.dist)
			for c := 0; c < s.cfg.Classes; c++ {
				if lvl.q[c] == nil {
					continue
				}
				u := lvl.q[c].VecMul(y)
				mass := matrix.VecSum(u)
				if mass < 1e-14 {
					continue
				}
				down := append([]int(nil), nd.pop...)
				down[c]--
				next = append(next, node{
					pop:    down,
					queued: nd.queued,
					dist:   matrix.VecScale(1/mass, u),
					weight: nd.weight * mass,
				})
			}
		}
		nodes = mergeNodes(next)
		// Replacement (if any tasks remain queued).
		anyQueued := false
		for _, nd := range nodes {
			for _, q := range nd.queued {
				if q > 0 {
					anyQueued = true
				}
			}
		}
		if anyQueued && dep < total-1 {
			nodes, err = s.admitOne(nodes, w.Policy)
			if err != nil {
				return nil, err
			}
		}
	}
	if err := finiteTotal(res.TotalTime); err != nil {
		return nil, err
	}
	return res, nil
}

// finiteTotal screens the result boundary for NaN/Inf.
func finiteTotal(v float64) error {
	if v != v || v > 1e308 || v < -1e308 {
		return fmt.Errorf("multiclass: total time is %v: %w", v, check.ErrNumeric)
	}
	return nil
}

// admitOne admits one queued task to every node per the policy.
func (s *Solver) admitOne(nodes []node, policy Policy) ([]node, error) {
	var out []node
	for _, nd := range nodes {
		totalQueued := 0
		for _, q := range nd.queued {
			totalQueued += q
		}
		if totalQueued == 0 {
			out = append(out, nd)
			continue
		}
		admitClass := func(c int, w float64) error {
			up := append([]int(nil), nd.pop...)
			up[c]++
			queued := append([]int(nil), nd.queued...)
			queued[c]--
			dist, err := s.applyArrival(nd.pop, nd.dist, c)
			if err != nil {
				return err
			}
			out = append(out, node{
				pop:    up,
				queued: queued,
				dist:   dist,
				weight: nd.weight * w,
			})
			return nil
		}
		switch policy {
		case PriorityOrder:
			for c, q := range nd.queued {
				if q > 0 {
					if err := admitClass(c, 1); err != nil {
						return nil, err
					}
					break
				}
			}
		default: // Proportional
			for c, q := range nd.queued {
				if q > 0 {
					if err := admitClass(c, float64(q)/float64(totalQueued)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return mergeNodes(out), nil
}

// applyArrival maps a distribution at pop to pop+e_c through the
// class-c entry vector.
func (s *Solver) applyArrival(pop []int, dist []float64, c int) ([]float64, error) {
	from, err := s.levelFor(pop)
	if err != nil {
		return nil, err
	}
	up := append([]int(nil), pop...)
	up[c]++
	to, err := s.levelFor(up)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(to.states))
	scratch := make([]int, s.space.width)
	for i, p := range dist {
		if p == 0 {
			continue
		}
		for e, pe := range s.cfg.Entry[c] {
			if pe == 0 {
				continue
			}
			copy(scratch, from.states[i])
			s.addArrival(scratch, e, c)
			out[to.index[s.space.key(scratch)]] += p * pe
		}
	}
	return out, nil
}

// mergeNodes combines nodes sharing (pop, queued).
func mergeNodes(nodes []node) []node {
	type acc struct {
		node
	}
	merged := map[string]*acc{}
	var order []string
	for _, nd := range nodes {
		key := popKey(nd.pop) + "|" + popKey(nd.queued)
		if a, ok := merged[key]; ok {
			for i := range a.dist {
				a.dist[i] = (a.dist[i]*a.weight + nd.dist[i]*nd.weight) / (a.weight + nd.weight)
			}
			a.weight += nd.weight
			continue
		}
		cp := nd
		cp.dist = append([]float64(nil), nd.dist...)
		merged[key] = &acc{cp}
		order = append(order, key)
	}
	out := make([]node, 0, len(merged))
	for _, key := range order {
		out = append(out, merged[key].node)
	}
	return out
}
