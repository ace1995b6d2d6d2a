// Package multiclass extends the finite-workload transient model to
// heterogeneous task classes — the BCMP-style generalization the
// paper's background section points at. Each class has its own
// exponential service rates, routing chain and entry vector; the
// workload is a vector of task counts per class; and the admission
// policy decides which queued class replaces a departure.
//
// Modeling choices, chosen to keep the chain exactly Markov:
//
//   - Service is exponential with class-dependent rates (phase-type
//     per class would multiply the state space by phase vectors per
//     position; single-class phase-type lives in internal/core).
//   - Queue stations serve in random order (ROS): on a completion the
//     next customer is drawn uniformly from those waiting. For
//     exponential service ROS has the same count process as FCFS in
//     the single-class case, and stays exact — not approximate — as a
//     model in the multiclass case.
//   - The population state is a vector (k₁, …, k_C); departures step
//     down one class, replacements step back up a class chosen by the
//     admission policy, so the solver walks a lattice of population
//     vectors instead of the single-class ladder.
package multiclass

import (
	"fmt"

	"finwl/internal/check"
	"finwl/internal/matrix"
	"finwl/internal/statespace"
)

// Station is one service station; multiclass supports Delay and
// Queue kinds.
type Station struct {
	Name string
	Kind statespace.Kind
}

// Config describes a multiclass network.
type Config struct {
	Stations []Station
	Classes  int
	// Rates[st][c] is the exponential service rate of class c at
	// station st.
	Rates [][]float64
	// Route[c] is class c's station-level routing matrix; Exit[c] and
	// Entry[c] its exit and entry vectors.
	Route []*matrix.Matrix
	Exit  [][]float64
	Entry [][]float64
}

// Validate checks dimensions, finiteness and probability structure,
// and that no class can be trapped: every station a class reaches from
// its entry vector must have a route on to an exit, or its tasks could
// circulate forever (I−P singular for the solver, an endless run for
// the simulator). Every refusal matches check.ErrInvalidModel.
func (cfg *Config) Validate() error {
	m := len(cfg.Stations)
	if m == 0 {
		return check.Invalid("multiclass: no stations")
	}
	if cfg.Classes < 1 {
		return check.Invalid("multiclass: %d classes", cfg.Classes)
	}
	for st, s := range cfg.Stations {
		if s.Kind != statespace.Delay && s.Kind != statespace.Queue {
			return check.Invalid("multiclass: station %d kind %v unsupported", st, s.Kind)
		}
	}
	if len(cfg.Rates) != m {
		return check.Invalid("multiclass: rates for %d stations, want %d", len(cfg.Rates), m)
	}
	for st, rates := range cfg.Rates {
		if len(rates) != cfg.Classes {
			return check.Invalid("multiclass: station %d has %d class rates", st, len(rates))
		}
		if err := check.PositiveVec(fmt.Sprintf("multiclass: station %d rate", st), rates); err != nil {
			return err
		}
	}
	if len(cfg.Route) != cfg.Classes || len(cfg.Exit) != cfg.Classes || len(cfg.Entry) != cfg.Classes {
		return check.Invalid("multiclass: routing/exit/entry not per-class")
	}
	for c, route := range cfg.Route {
		if route == nil || route.Rows() != m || route.Cols() != m || len(cfg.Exit[c]) != m || len(cfg.Entry[c]) != m {
			return check.Invalid("multiclass: class %d routing, exit or entry not sized for %d stations", c, m)
		}
		for st := 0; st < m; st++ {
			row := append(append([]float64(nil), route.RawRow(st)...), cfg.Exit[c][st])
			if err := check.StochasticRow(fmt.Sprintf("multiclass: class %d station %d routing+exit", c, st), row); err != nil {
				return err
			}
		}
		if err := check.ProbVec(fmt.Sprintf("multiclass: class %d entry", c), cfg.Entry[c]); err != nil {
			return err
		}
		if st := cfg.trapped(c); st >= 0 {
			return check.Invalid("multiclass: class %d reaches station %d (%s) but cannot exit from it", c, st, cfg.Stations[st].Name)
		}
	}
	return nil
}

// trapped returns a station class c reaches from its entry vector but
// has no route from to an exit, or -1 when there is none.
func (cfg *Config) trapped(c int) int {
	m := len(cfg.Stations)
	leaves, reached := make([]bool, m), make([]bool, m)
	for st := 0; st < m; st++ {
		leaves[st], reached[st] = cfg.Exit[c][st] > 0, cfg.Entry[c][st] > 0
	}
	edge := cfg.Route[c].At
	grow(leaves, func(i, j int) bool { return edge(i, j) > 0 })
	grow(reached, func(i, j int) bool { return edge(j, i) > 0 })
	for st := 0; st < m; st++ {
		if reached[st] && !leaves[st] {
			return st
		}
	}
	return -1
}

// grow marks every station i with an edge(i, j) to a marked station j,
// until no more join.
func grow(marked []bool, edge func(i, j int) bool) {
	for grew := true; grew; {
		grew = false
		for i := range marked {
			for j := range marked {
				if !marked[i] && marked[j] && edge(i, j) {
					marked[i], grew = true, true
				}
			}
		}
	}
}

// State layout: delay stations store C counts; queue stations store C
// counts plus a serving-class slot (canonical 0 when empty).
type space struct {
	cfg     *Config
	offsets []int
	width   int
}

func newSpace(cfg *Config) *space {
	s := &space{cfg: cfg, offsets: make([]int, len(cfg.Stations))}
	for st, stn := range cfg.Stations {
		s.offsets[st] = s.width
		if stn.Kind == statespace.Delay {
			s.width += cfg.Classes
		} else {
			s.width += cfg.Classes + 1
		}
	}
	return s
}

func (s *space) count(state []int, st, c int) int { return state[s.offsets[st]+c] }
func (s *space) setCount(state []int, st, c, n int) {
	state[s.offsets[st]+c] = n
}
func (s *space) stationTotal(state []int, st int) int {
	total := 0
	for c := 0; c < s.cfg.Classes; c++ {
		total += state[s.offsets[st]+c]
	}
	return total
}
func (s *space) serving(state []int, st int) int { return state[s.offsets[st]+s.cfg.Classes] }
func (s *space) setServing(state []int, st, c int) {
	state[s.offsets[st]+s.cfg.Classes] = c
}

func (s *space) key(state []int) string {
	b := make([]byte, len(state))
	for i, v := range state {
		b[i] = byte(v)
	}
	return string(b)
}

// level holds the matrices for one population vector.
type level struct {
	pop    []int
	states [][]int
	index  map[string]int
	mDiag  []float64
	p      *matrix.Matrix
	fact   *matrix.LU
	tau    []float64
	// q[c] maps a class-c departure to the states of pop − e_c.
	q []*matrix.Matrix
}

// enumerate lists all states with the given per-class populations.
func (s *space) enumerate(pop []int) *level {
	lvl := &level{pop: append([]int(nil), pop...), index: map[string]int{}}
	state := make([]int, s.width)
	remaining := append([]int(nil), pop...)
	var rec func(st int)
	rec = func(st int) {
		if st == len(s.cfg.Stations) {
			for _, r := range remaining {
				if r != 0 {
					return
				}
			}
			cp := append([]int(nil), state...)
			lvl.index[s.key(cp)] = len(lvl.states)
			lvl.states = append(lvl.states, cp)
			return
		}
		s.placeStation(st, 0, state, remaining, func() { rec(st + 1) })
	}
	rec(0)
	return lvl
}

// placeStation distributes any prefix of the remaining tasks of each
// class onto station st, then calls next; queue stations additionally
// choose a serving class when non-empty.
func (s *space) placeStation(st, c int, state, remaining []int, next func()) {
	if c == s.cfg.Classes {
		if s.cfg.Stations[st].Kind == statespace.Queue {
			if s.stationTotal(state, st) == 0 {
				s.setServing(state, st, 0)
				next()
			} else {
				for sc := 0; sc < s.cfg.Classes; sc++ {
					if s.count(state, st, sc) > 0 {
						s.setServing(state, st, sc)
						next()
					}
				}
				s.setServing(state, st, 0)
			}
		} else {
			next()
		}
		return
	}
	for n := 0; n <= remaining[c]; n++ {
		s.setCount(state, st, c, n)
		remaining[c] -= n
		s.placeStation(st, c+1, state, remaining, next)
		remaining[c] += n
	}
	s.setCount(state, st, c, 0)
}
