// Package faultcheck is the fault-injection harness of the solver
// pipeline: a catalogue of degenerate-input classes (NaN routing,
// infinite rates, absorbing subchains, oversized populations, …) and
// an Exercise driver that pushes a network through every public
// pipeline — validation, traffic equations, product form, the
// transient solver, and the discrete-event simulator — under
// two invariants:
//
//  1. no panic escapes an exported entry point, and
//  2. every failure matches one of the typed sentinels in
//     internal/check under errors.Is.
//
// The package tests iterate the catalogue, and the fuzz targets
// generate adversarial networks, phase-type fits and linear systems
// beyond it. The harness lives in a non-test package so future tools
// (e.g. a soak binary) can reuse it.
package faultcheck

import (
	"context"
	"errors"
	"fmt"
	"math"

	"finwl/internal/check"
	"finwl/internal/core"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/productform"
	"finwl/internal/sim"
	"finwl/internal/sparse"
	"finwl/internal/statespace"
)

// Typed reports whether err matches the typed-error contract: nil, or
// one of the check sentinels under errors.Is.
func Typed(err error) bool {
	if err == nil {
		return true
	}
	for _, sentinel := range []error{
		check.ErrInvalidModel, check.ErrSingular, check.ErrNotConverged,
		check.ErrNumeric, check.ErrCanceled, check.ErrOverloaded, check.ErrDegraded,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// Violation is a broken robustness contract: a panic that escaped an
// exported entry point, or an untyped failure.
type Violation struct {
	Stage string
	Panic any   // non-nil when a panic escaped
	Err   error // non-nil for an untyped error
}

func (v *Violation) Error() string {
	if v.Panic != nil {
		return fmt.Sprintf("faultcheck: stage %s: panic escaped: %v", v.Stage, v.Panic)
	}
	return fmt.Sprintf("faultcheck: stage %s: untyped error: %v", v.Stage, v.Err)
}

func (v *Violation) Unwrap() error { return v.Err }

// capture runs fn with panic containment.
func capture(stage string, fn func() error) (violation *Violation, failed bool) {
	var err error
	panicked := func() (p any) {
		defer func() { p = recover() }()
		err = fn()
		return nil
	}()
	if panicked != nil {
		return &Violation{Stage: stage, Panic: panicked}, true
	}
	if err == nil {
		return nil, false
	}
	if !Typed(err) {
		return &Violation{Stage: stage, Err: err}, true
	}
	return nil, true
}

// maxSimEvents bounds one harness simulation run so structurally valid
// but non-absorbing networks fail typed instead of spinning.
const maxSimEvents = 200_000

// Exercise drives net through every public pipeline with population k
// and workload n, and returns a *Violation if any stage breaks the
// contract. A nil return means every stage either succeeded or failed
// with a typed error — both are contract-conforming outcomes.
func Exercise(net *network.Network, k, n int) error {
	ctx := context.Background()

	// Validation is the gate every solve entry point runs first: if it
	// rejects the model (typed), the pipeline below is unreachable in
	// real usage, but we still require the rejection itself to be clean.
	if v, failed := capture("validate", func() error { return net.Validate() }); v != nil {
		return v
	} else if failed {
		return nil
	}

	stages := []struct {
		name string
		fn   func() error
	}{
		{"visit-ratios", func() error { _, err := net.VisitRatios(); return err }},
		{"time-components", func() error { _, err := net.TimeComponents(); return err }},
		{"product-form", func() error { _, err := productform.FromNetwork(net); return err }},
		{"dense-solve", func() error { return densePipeline(ctx, net, k, n) }},
		{"simulate", func() error {
			_, err := sim.RunCtx(ctx, sim.Config{Net: net, K: k, N: n, Seed: 1, MaxEvents: maxSimEvents})
			return err
		}},
	}
	for _, st := range stages {
		if v, _ := capture(st.name, st.fn); v != nil {
			return v
		}
	}
	return nil
}

func densePipeline(ctx context.Context, net *network.Network, k, n int) error {
	s, err := core.NewSolverCtx(ctx, net, k)
	if err != nil {
		return err
	}
	if _, err := s.SolveCtx(ctx, n); err != nil {
		return err
	}
	if _, err := s.SolveSweepCtx(ctx, []int{1, n}); err != nil {
		return err
	}
	_, _, err = s.SteadyStateCtx(ctx)
	return err
}

// Class is one degenerate-input class of the catalogue.
type Class struct {
	Name  string
	Build func() (*network.Network, int, int) // network, K, N
}

// twoStation builds a small healthy two-station network the classes
// then break in targeted ways.
func twoStation() *network.Network {
	route := matrix.New(2, 2)
	route.Set(0, 1, 0.5)
	route.Set(1, 0, 1)
	return &network.Network{
		Stations: []network.Station{
			{Name: "cpu", Kind: statespace.Delay, Service: phase.MustExpo(2)},
			{Name: "io", Kind: statespace.Queue, Service: phase.MustExpo(3)},
		},
		Route: route,
		Exit:  []float64{0.5, 0},
		Entry: []float64{1, 0},
	}
}

// Classes returns the degenerate-input catalogue. Every class must
// survive Exercise without a contract violation.
func Classes() []Class {
	return []Class{
		{"nan-routing", func() (*network.Network, int, int) {
			net := twoStation()
			net.Route.Set(0, 1, math.NaN())
			return net, 3, 5
		}},
		{"inf-service-rate", func() (*network.Network, int, int) {
			net := twoStation()
			net.Stations[0].Service.Rates[0] = math.Inf(1)
			return net, 3, 5
		}},
		{"zero-service-rate", func() (*network.Network, int, int) {
			net := twoStation()
			net.Stations[1].Service.Rates[0] = 0
			return net, 3, 5
		}},
		{"negative-entry", func() (*network.Network, int, int) {
			net := twoStation()
			net.Entry = []float64{-0.5, 1.5}
			return net, 3, 5
		}},
		{"super-stochastic-row", func() (*network.Network, int, int) {
			net := twoStation()
			net.Route.Set(0, 1, 0.9) // row 0: 0.9 + exit 0.5 = 1.4
			return net, 3, 5
		}},
		{"no-stations", func() (*network.Network, int, int) {
			return &network.Network{}, 3, 5
		}},
		{"nil-routing-matrix", func() (*network.Network, int, int) {
			net := twoStation()
			net.Route = nil
			return net, 3, 5
		}},
		{"dimension-mismatch", func() (*network.Network, int, int) {
			net := twoStation()
			net.Exit = []float64{0.5} // one entry for two stations
			return net, 3, 5
		}},
		{"trapped-tasks", func() (*network.Network, int, int) {
			// Structurally valid closed loop: tasks never exit, so the
			// departure operator is singular and the simulator can never
			// finish. Both must fail typed.
			net := twoStation()
			net.Route.Set(0, 1, 1)
			net.Exit = []float64{0, 0}
			return net, 3, 5
		}},
		{"absorbing-phase", func() (*network.Network, int, int) {
			// A hand-built PH whose second phase loops onto itself with
			// probability one: service can never complete from it.
			net := twoStation()
			trans := matrix.New(2, 2)
			trans.Set(0, 1, 0.5)
			trans.Set(1, 1, 1)
			net.Stations[0].Service = &phase.PH{
				Name:  "trap",
				Alpha: []float64{1, 0},
				Rates: []float64{1, 1},
				Trans: trans,
			}
			return net, 3, 5
		}},
		{"nan-phase-entry", func() (*network.Network, int, int) {
			net := twoStation()
			net.Stations[0].Service.Alpha[0] = math.NaN()
			return net, 3, 5
		}},
		{"oversized-population", func() (*network.Network, int, int) {
			return twoStation(), network.MaxPopulation + 1, 5
		}},
		{"zero-population", func() (*network.Network, int, int) {
			return twoStation(), 0, 5
		}},
		{"zero-workload", func() (*network.Network, int, int) {
			return twoStation(), 3, 0
		}},
		{"unknown-station-kind", func() (*network.Network, int, int) {
			net := twoStation()
			net.Stations[1].Kind = statespace.Kind(99)
			return net, 3, 5
		}},
	}
}

// ExerciseSolve drives the dense robust linear solver and the
// transient solver's level factorization on an arbitrary matrix and
// right-hand side under the same contract: typed failure or a finite
// solution, never a panic.
func ExerciseSolve(a *matrix.Matrix, b []float64) error {
	if v, failed := capture("dense-robust-solve", func() error {
		x, _, err := matrix.SolveRobust(a, b)
		if err != nil {
			return err
		}
		return check.FiniteVec("solution", x)
	}); v != nil {
		return v
	} else if failed {
		return nil
	}

	// The same system through the transient solver's level
	// factorization: I−P with P = I−A is the form the level solves use,
	// and the sparse LU's non-substochastic, singular and
	// ill-conditioned refusals are the typed errors.
	n := a.Rows()
	p := matrix.Identity(n).Sub(a)
	builder := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := p.At(i, j); v != 0 {
				builder.Add(i, j, v)
			}
		}
	}
	if v, _ := capture("sparse-robust-solve", func() error {
		f, err := sparse.FactorIMinusP(builder.Build())
		if err != nil {
			return err
		}
		return check.FiniteVec("solution", f.Solve(b))
	}); v != nil {
		return v
	}
	return nil
}
