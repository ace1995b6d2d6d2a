package faultcheck

import (
	"errors"
	"math"
	"testing"

	"finwl/internal/check"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// Every catalogued degenerate class must go through the full pipeline
// without a panic escaping and without an untyped error.
func TestDegenerateClasses(t *testing.T) {
	for _, cls := range Classes() {
		cls := cls
		t.Run(cls.Name, func(t *testing.T) {
			t.Parallel()
			net, k, n := cls.Build()
			if err := Exercise(net, k, n); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A healthy network must pass Exercise too (the harness must not
// reject success).
func TestHealthyNetworkPasses(t *testing.T) {
	if err := Exercise(twoStation(), 3, 6); err != nil {
		t.Fatal(err)
	}
}

func TestTypedRecognizesSentinels(t *testing.T) {
	for _, err := range []error{
		nil,
		check.Invalid("x"),
		check.ErrSingular,
		check.ErrNotConverged,
		check.ErrNumeric,
		check.ErrCanceled,
	} {
		if !Typed(err) {
			t.Fatalf("Typed(%v) = false", err)
		}
	}
	if Typed(errors.New("plain")) {
		t.Fatal("Typed accepted an untyped error")
	}
}

// Specific classes must fail with the *right* sentinel, not just any.
func TestClassErrorIdentities(t *testing.T) {
	net := twoStation()
	net.Route.Set(0, 1, math.NaN())
	if err := net.Validate(); !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("NaN routing: %v, want ErrInvalidModel", err)
	}

	trapped := twoStation()
	trapped.Route.Set(0, 1, 1)
	trapped.Exit = []float64{0, 0}
	if _, err := trapped.VisitRatios(); !errors.Is(err, check.ErrSingular) {
		t.Fatalf("trapped VisitRatios: %v, want ErrSingular", err)
	}
}

func TestExerciseSolveDegenerate(t *testing.T) {
	cases := []struct {
		name string
		a    func() *matrix.Matrix
		b    []float64
	}{
		{"singular", func() *matrix.Matrix {
			a := matrix.New(2, 2)
			a.Set(0, 0, 1)
			a.Set(0, 1, 2)
			a.Set(1, 0, 2)
			a.Set(1, 1, 4)
			return a
		}, []float64{1, 1}},
		{"nan-entries", func() *matrix.Matrix {
			a := matrix.Identity(3)
			a.Set(1, 1, math.NaN())
			return a
		}, []float64{1, 1, 1}},
		{"inf-rhs", func() *matrix.Matrix { return matrix.Identity(2) }, []float64{math.Inf(1), 0}},
		{"zero-matrix", func() *matrix.Matrix { return matrix.New(3, 3) }, []float64{1, 2, 3}},
		{"well-posed", func() *matrix.Matrix {
			a := matrix.Identity(2)
			a.Set(0, 1, 0.25)
			return a
		}, []float64{1, 2}},
		// I − P with P substochastic: the level solve takes the sparse LU.
		{"m-matrix", func() *matrix.Matrix {
			a := matrix.Identity(2)
			a.Set(0, 1, -0.5)
			a.Set(1, 0, -0.25)
			return a
		}, []float64{1, 2}},
		// The robust solve equilibrates a tiny pivot away; the level
		// solve refuses it on its condition estimate, typed.
		{"tiny-pivot", func() *matrix.Matrix {
			a := matrix.Identity(2)
			a.Set(1, 1, 1e-16)
			return a
		}, []float64{1, 1}},
		{"vanishing-pivot", func() *matrix.Matrix {
			a := matrix.Identity(2)
			a.Set(1, 1, 1e-17)
			return a
		}, []float64{1, 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if err := ExerciseSolve(tc.a(), tc.b); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The harness must notice an actual violation: a stage that panics.
func TestCaptureFlagsPanics(t *testing.T) {
	v, _ := capture("boom", func() error { panic("kaboom") })
	if v == nil || v.Panic == nil {
		t.Fatal("capture missed a panic")
	}
	v, _ = capture("plain", func() error { return errors.New("untyped") })
	if v == nil || v.Err == nil {
		t.Fatal("capture accepted an untyped error")
	}
}

// Multi-server stations go through the same hardened pipeline.
func TestMultiServerDegenerate(t *testing.T) {
	route := matrix.New(1, 1)
	net := &network.Network{
		Stations: []network.Station{
			{Name: "pool", Kind: statespace.Multi, Service: phase.MustExpo(1), Servers: 0},
		},
		Route: route,
		Exit:  []float64{1},
		Entry: []float64{1},
	}
	if err := Exercise(net, 3, 5); err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("Servers=0 multi station: %v, want ErrInvalidModel", err)
	}
}
