package faultcheck

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"finwl/internal/check"
	"finwl/internal/cluster"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/sparse"
	"finwl/internal/statespace"
	"finwl/internal/workload"
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

// The sparse LU factors every level with no fallback, so level assembly
// must hand it a substochastic P_k for every valid network: the
// classes' and fuzz seeds' networks that pass validation, and the
// paper's central (K ≤ 12) and distributed (K ≤ 5) clusters with remote
// service CV² ∈ {1, 4, 10}. A level of a valid model may still be
// singular (tasks trapped in a cycle), but never outside the LU's
// stability domain; the paper's families factor outright.
func TestLevelAssemblyIsSubstochastic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every paper-family chain up to distributed K=5")
	}
	factorAll := func(name string, net *network.Network, k int, family bool) {
		t.Helper()
		chain, err := network.NewChain(net, k)
		if err != nil {
			if family {
				t.Fatalf("%s: %v", name, err)
			}
			return // refused at validation: no level is assembled
		}
		for lk := 1; lk <= k; lk++ {
			lvl := chain.Levels[lk]
			_, err := lvl.Sym.Factor(lvl.P)
			if errors.Is(err, sparse.ErrNotSubstochastic) || (family && err != nil) {
				t.Fatalf("%s: level %d: %v", name, lk, err)
			}
		}
	}
	factorAll("two-station", twoStation(), 3, false)
	for _, cls := range Classes() {
		net, k, _ := cls.Build()
		factorAll(cls.Name, net, k, false)
	}
	for i, seed := range networkSeeds {
		net, k, _ := decodeNetwork(seed)
		factorAll(fmt.Sprintf("fuzz seed %d", i), net, k, false)
	}
	app := workload.Default(30)
	for _, cv2 := range []float64{1, 4, 10} {
		dists := cluster.Dists{Remote: cluster.WithCV2(cv2)}
		for k := 1; k <= 12; k++ {
			net, err := cluster.Central(k, app, dists, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			factorAll(fmt.Sprintf("central K=%d CV²=%g", k, cv2), net, k, true)
		}
		for k := 1; k <= 5; k++ {
			net, err := cluster.Distributed(k, app, dists)
			if err != nil {
				t.Fatal(err)
			}
			factorAll(fmt.Sprintf("distributed K=%d CV²=%g", k, cv2), net, k, true)
		}
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
