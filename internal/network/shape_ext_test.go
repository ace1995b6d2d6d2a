package network_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"finwl/internal/core"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// shapeNet is the §5.4 central cluster with an H2 shared disk and
// parameters drawn from seed; every seed has the same chain shape.
func shapeNet(seed int64) *network.Network {
	r := rand.New(rand.NewSource(seed))
	p1 := 0.2 + 0.6*r.Float64()
	q := 0.05 + 0.2*r.Float64()
	route := matrix.New(4, 4)
	route.Set(0, 1, p1*(1-q))
	route.Set(0, 2, (1-p1)*(1-q))
	route.Set(1, 0, 1)
	route.Set(2, 3, 1)
	route.Set(3, 0, 1)
	return &network.Network{
		Stations: []network.Station{
			{Name: "CPU", Kind: statespace.Delay, Service: phase.MustExpo(0.5 + r.Float64())},
			{Name: "Disk", Kind: statespace.Delay, Service: phase.MustExpo(1 + r.Float64())},
			{Name: "Comm", Kind: statespace.Queue, Service: phase.MustExpo(2 + r.Float64())},
			{Name: "RDisk", Kind: statespace.Queue, Service: phase.MustHyperExpFit(0.5+r.Float64(), 2+8*r.Float64())},
		},
		Route: route,
		Exit:  []float64{q, 0, 0, 0},
		Entry: []float64{1, 0, 0, 0},
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameChains requires bitwise-identical level values.
func sameChains(t *testing.T, a, b *network.Chain) {
	t.Helper()
	for k := 1; k < len(a.Levels); k++ {
		la, lb := a.Levels[k], b.Levels[k]
		if !sameFloats(la.MDiag, lb.MDiag) {
			t.Fatalf("level %d: MDiag differs", k)
		}
		for _, m := range [][2]interface{ Dense() *matrix.Matrix }{{la.P, lb.P}, {la.Q, lb.Q}, {la.R, lb.R}} {
			da, db := m[0].Dense(), m[1].Dense()
			for i := 0; i < da.Rows(); i++ {
				if !sameFloats(da.RawRow(i), db.RawRow(i)) {
					t.Fatalf("level %d: matrix values differ", k)
				}
			}
		}
	}
}

// A chain served from the memo and one built after clearing it are
// bitwise identical, and so are their τ vectors and factorizations
// (compared through solves), across seeded networks of one shape.
func TestShapeMemoHitMatchesMiss(t *testing.T) {
	const K = 5
	if _, err := network.NewChain(shapeNet(100), K); err != nil { // record the shape
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		net := shapeNet(seed)
		hit0, _, _ := network.ShapeMemoCounts()
		hit, err := network.NewChain(net, K)
		if err != nil {
			t.Fatal(err)
		}
		if h, _, _ := network.ShapeMemoCounts(); h != hit0+1 {
			t.Fatalf("seed %d: chain of a recorded shape was not a memo hit", seed)
		}
		network.ResetShapeMemo()
		miss, err := network.NewChain(net, K)
		if err != nil {
			t.Fatal(err)
		}
		sameChains(t, hit, miss)
		sh, err := core.NewSolverFromChain(hit)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := core.NewSolverFromChain(miss)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		for k := 1; k <= K; k++ {
			if !sameFloats(sh.Tau(k), sm.Tau(k)) {
				t.Fatalf("seed %d level %d: τ differs", seed, k)
			}
			pi := make([]float64, hit.D(k))
			for i := range pi {
				pi[i] = r.Float64()
			}
			if !sameFloats(sh.Depart(k, pi), sm.Depart(k, pi)) {
				t.Fatalf("seed %d level %d: left solves differ", seed, k)
			}
			fh, errh := hit.Levels[k].Sym.Factor(hit.Levels[k].P)
			fm, errm := miss.Levels[k].Sym.Factor(miss.Levels[k].P)
			if errh != nil || errm != nil {
				t.Fatalf("seed %d level %d: factor errors %v (hit) and %v (miss)", seed, k, errh, errm)
			}
			if fh.NNZ() != fm.NNZ() || !sameFloats(fh.Solve(pi), fm.Solve(pi)) ||
				math.Float64bits(fh.Cond1Est()) != math.Float64bits(fm.Cond1Est()) {
				t.Fatalf("seed %d level %d: factorizations differ", seed, k)
			}
		}
		rh, err := sh.Solve(3 * K)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := sm.Solve(3 * K)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rh.TotalTime) != math.Float64bits(rm.TotalTime) {
			t.Fatalf("seed %d: E(T) %v (hit) vs %v (miss)", seed, rh.TotalTime, rm.TotalTime)
		}
	}
}

// A network with one routing probability set to zero has another
// shape: it gets its own memo entry and still matches the dense
// reference.
func TestShapeMemoZeroRouting(t *testing.T) {
	const K = 4
	base, err := network.NewChain(shapeNet(7), K)
	if err != nil {
		t.Fatal(err)
	}
	net := shapeNet(7)
	net.Route.Set(0, 2, net.Route.At(0, 2)+net.Route.At(0, 1))
	net.Route.Set(0, 1, 0)
	_, miss0, _ := network.ShapeMemoCounts()
	c, err := network.NewChain(net, K)
	if err != nil {
		t.Fatal(err)
	}
	if _, miss, _ := network.ShapeMemoCounts(); miss != miss0+1 {
		t.Fatal("zero-routing network reused another shape's entry")
	}
	if c.Levels[K].P.NNZ() >= base.Levels[K].P.NNZ() {
		t.Fatalf("zero route kept the pattern: nnz %d vs %d", c.Levels[K].P.NNZ(), base.Levels[K].P.NNZ())
	}
	ref, err := network.BuildDenseReference(net, K)
	if err != nil {
		t.Fatal(err)
	}
	network.CompareChainToDenseReference(t, c, ref, 1e-14)
}

// Concurrent builds of one new shape record it once, and every chain
// equals its serial build bitwise.
func TestShapeMemoConcurrentBuilds(t *testing.T) {
	const K, workers = 5, 8
	network.ResetShapeMemo()
	_, miss0, _ := network.ShapeMemoCounts()
	chains := make([]*network.Chain, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chains[w], errs[w] = network.NewChain(shapeNet(int64(w)), K)
		}(w)
	}
	wg.Wait()
	if _, miss, _ := network.ShapeMemoCounts(); miss != miss0+1 {
		t.Fatalf("%d misses for one shape, want 1", miss-miss0)
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		serial, err := network.NewChain(shapeNet(int64(w)), K)
		if err != nil {
			t.Fatal(err)
		}
		sameChains(t, chains[w], serial)
		if chains[w].Levels[K].Sym != chains[0].Levels[K].Sym {
			t.Fatal("chains of one shape do not share the analysis")
		}
	}
}
