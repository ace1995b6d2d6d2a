package core

import (
	"fmt"
	"math"

	"finwl/internal/statespace"
)

// Regions locates the paper's three operating regions in a transient
// solution: the fill transient (epochs still moving toward the
// steady value), the steady feeding region, and the draining tail.
type Regions struct {
	// FillEpochs is the number of leading epochs before the series
	// settles within tol of the steady value.
	FillEpochs int
	// DrainEpochs is the number of trailing epochs after the series
	// leaves the steady value again.
	DrainEpochs int
	// SteadyEpochs is what remains in the middle.
	SteadyEpochs int
	// SteadyValue is the plateau inter-departure time used as the
	// reference.
	SteadyValue float64
	// SteadyTimeFrac is the fraction of E(T) spent in the steady
	// region — the paper's criterion for when the product-form
	// solution is a safe approximation.
	SteadyTimeFrac float64
}

// Regions analyses the epoch series with relative tolerance tol
// (e.g. 0.01). For workloads too small to develop a plateau the
// steady region may be empty.
func (r *Result) Regions(tol float64) Regions {
	n := len(r.Epochs)
	if n == 0 {
		return Regions{}
	}
	// Reference plateau: the epoch just before draining begins, which
	// is the most-converged feeding epoch.
	plateauIdx := n - r.K
	if plateauIdx < 0 {
		plateauIdx = 0
	}
	if plateauIdx > 0 {
		plateauIdx-- // last feeding epoch
	}
	steady := r.Epochs[plateauIdx]
	near := func(v float64) bool { return math.Abs(v-steady) <= tol*steady }

	fill := 0
	for fill < n && !near(r.Epochs[fill]) {
		fill++
	}
	drain := 0
	for drain < n-fill && !near(r.Epochs[n-1-drain]) {
		drain++
	}
	regions := Regions{
		FillEpochs:   fill,
		DrainEpochs:  drain,
		SteadyEpochs: n - fill - drain,
		SteadyValue:  steady,
	}
	var steadyTime float64
	for i := fill; i < n-drain; i++ {
		steadyTime += r.Epochs[i]
	}
	if r.TotalTime > 0 {
		regions.SteadyTimeFrac = steadyTime / r.TotalTime
	}
	return regions
}

// Occupancy returns the expected number of customers at each station
// under the level-k state distribution pi. Summed over stations it
// recovers k — a conservation check the tests rely on. Evaluated at
// TimeStationary it gives the mean queue lengths (matching MVA for
// exponential networks); evaluated at SteadyState's fixed point it
// gives the departure-embedded view instead. On a chain lumped over
// exchangeable stations each class's members get their common value,
// the class average.
func (s *Solver) Occupancy(k int, pi []float64) []float64 {
	s.checkLevel(k)
	lvl := s.Chain.Levels[k]
	space := s.Chain.Space
	if len(pi) != lvl.States.Count() {
		panic(fmt.Sprintf("core: occupancy distribution length %d, want %d", len(pi), lvl.States.Count()))
	}
	out := make([]float64, space.Stations())
	for i, p := range pi {
		if p == 0 {
			continue
		}
		state := lvl.States.State(i)
		for st := 0; st < space.Stations(); st++ {
			out[st] += p * float64(space.CustomersAt(state, st))
		}
	}
	space.AverageClasses(out)
	return out
}

// BusyServers returns the expected number of busy servers per station
// under the level-k distribution pi: all customers at a delay
// station, min(1, n) at a queue, min(c, n) at a multi-server station.
// Dividing a queue station's value by 1 (or a multi station's by c)
// gives its utilization. Exchangeable stations get their class
// average, as in Occupancy.
func (s *Solver) BusyServers(k int, pi []float64) []float64 {
	s.checkLevel(k)
	lvl := s.Chain.Levels[k]
	space := s.Chain.Space
	out := make([]float64, space.Stations())
	for i, p := range pi {
		if p == 0 {
			continue
		}
		state := lvl.States.State(i)
		for st := 0; st < space.Stations(); st++ {
			n := space.CustomersAt(state, st)
			busy := n
			switch space.Shape(st).Kind {
			case statespace.Queue:
				if busy > 1 {
					busy = 1
				}
			case statespace.Multi:
				if c := space.Shape(st).Servers; busy > c {
					busy = c
				}
			}
			out[st] += p * float64(busy)
		}
	}
	space.AverageClasses(out)
	return out
}
