package network

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"finwl/internal/matrix"
	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// The structured CSR builder replaced the dense per-level matrices,
// so the historical dense build survives here as the reference
// implementation: the historical generator (emitLevel in
// emit_ref_test.go, which reads the network's parameters directly
// rather than through the memoized tape) draining into dense
// accumulators, built serially with none of the workspace pooling.
// Holding the production chain to this reference (to 1e-12, in
// practice bitwise — the tape replays the weights in emission order
// exactly like dense +=) is the equivalence contract of the refactor.

// DenseRefLevel is one population level accumulated densely.
type DenseRefLevel struct {
	MDiag []float64
	P     *matrix.Matrix
	Q     *matrix.Matrix // D(k) × D(k−1)
	R     *matrix.Matrix // D(k−1) × D(k)
}

// DenseRefChain is the reference ladder for populations 1..maxK.
type DenseRefChain struct {
	Levels []*DenseRefLevel
}

type denseRefSink struct{ lvl *DenseRefLevel }

func (s denseRefSink) setM(i int, rate float64) { s.lvl.MDiag[i] = rate }
func (s denseRefSink) addP(i, j int, w float64) { s.lvl.P.Inc(i, j, w) }
func (s denseRefSink) addQ(i, j int, w float64) { s.lvl.Q.Inc(i, j, w) }
func (s denseRefSink) addR(i, j int, w float64) { s.lvl.R.Inc(i, j, w) }

// BuildDenseReference is the pre-refactor dense chain construction:
// same validation, same admission budget, same generator, dense
// storage, fully serial. Exported to the package's external tests so
// the faultcheck corpus can be held to it.
func BuildDenseReference(net *Network, maxK int) (*DenseRefChain, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	space := net.Space()
	if _, err := planChain(space, maxK); err != nil {
		return nil, err
	}
	states := make([]*statespace.Level, maxK+1)
	for k := range states {
		states[k] = space.Enumerate(k)
	}
	scratch := make([]int, space.Width())
	depart := make([]int, space.Width())
	c := &DenseRefChain{Levels: make([]*DenseRefLevel, maxK+1)}
	for k := 1; k <= maxK; k++ {
		prev, cur := states[k-1], states[k]
		d, dPrev := cur.Count(), prev.Count()
		lvl := &DenseRefLevel{
			MDiag: make([]float64, d),
			P:     matrix.New(d, d),
			Q:     matrix.New(d, dPrev),
			R:     matrix.New(dPrev, d),
		}
		emitLevel(net, space, prev, cur, denseRefSink{lvl}, scratch, depart)
		c.Levels[k] = lvl
	}
	return c, nil
}

// CompareChainToDenseReference asserts a structured chain matches the
// reference within tol on every level. Exported for the external
// corpus tests.
func CompareChainToDenseReference(t *testing.T, c *Chain, ref *DenseRefChain, tol float64) {
	t.Helper()
	if len(c.Levels) != len(ref.Levels) {
		t.Fatalf("level count %d, reference %d", len(c.Levels), len(ref.Levels))
	}
	for k := 1; k < len(c.Levels); k++ {
		lvl, rl := c.Levels[k], ref.Levels[k]
		if d := matrix.VecMaxAbsDiff(lvl.MDiag, rl.MDiag); d > tol {
			t.Fatalf("level %d: MDiag differs from dense reference by %g", k, d)
		}
		if d := lvl.P.Dense().MaxAbsDiff(rl.P); d > tol {
			t.Fatalf("level %d: P differs from dense reference by %g", k, d)
		}
		if d := lvl.Q.Dense().MaxAbsDiff(rl.Q); d > tol {
			t.Fatalf("level %d: Q differs from dense reference by %g", k, d)
		}
		if d := lvl.R.Dense().MaxAbsDiff(rl.R); d > tol {
			t.Fatalf("level %d: R differs from dense reference by %g", k, d)
		}
	}
}

// gridNet is the §5.4 cluster with service processes widened to h
// phases: h=1 keeps every station exponential, h=2 puts two-phase
// hyperexponentials on the queue stations, h=3 an Erlang-3 on one of
// them. Phase growth stays on the queue stations so the k=8 state
// spaces remain dense-reference-sized.
func gridNet(h int) *Network {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	switch h {
	case 2:
		n.Stations[2].Service = phase.MustHyperExpFit(1, 8)
		n.Stations[3].Service = phase.MustHyperExpFit(2, 10)
	case 3:
		n.Stations[2].Service = phase.MustErlangMean(3, 1.0/3.0)
		n.Stations[3].Service = phase.MustHyperExpFit(2, 10)
	}
	return n
}

// TestStructuredMatchesDenseReference holds the CSR-native builder to
// the dense reference across the population × phase-richness grid.
func TestStructuredMatchesDenseReference(t *testing.T) {
	const tol = 1e-12
	for _, k := range []int{2, 4, 8} {
		for _, h := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("K%d/H%d", k, h), func(t *testing.T) {
				net := gridNet(h)
				ref, err := BuildDenseReference(net, k)
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewChain(net, k)
				if err != nil {
					t.Fatal(err)
				}
				CompareChainToDenseReference(t, c, ref, tol)
				// Entry vectors ride on R products; they must agree too.
				pi := []float64{1}
				for j := 1; j <= k; j++ {
					pi = ref.Levels[j].R.VecMul(pi)
				}
				if d := matrix.VecMaxAbsDiff(c.EntryVector(k), pi); d > tol {
					t.Fatalf("entry vector differs from dense reference by %g", d)
				}
			})
		}
	}
}

// At one grid point the chain is bitwise the dense reference, well
// inside 1e-14.
func TestSparseChainMatchesDenseReference(t *testing.T) {
	n := gridNet(2)
	ref, err := BuildDenseReference(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChain(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	CompareChainToDenseReference(t, c, ref, 1e-14)
}

// Property: the chain agrees with the dense reference on random
// networks, too.
func TestSparseChainMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomExpNetwork(r, 1+r.Intn(3))
		k := 1 + r.Intn(3)
		ref, err := BuildDenseReference(n, k)
		if err != nil {
			return false
		}
		c, err := NewChain(n, k)
		if err != nil {
			return false
		}
		for lvl := 1; lvl <= k; lvl++ {
			if c.Levels[lvl].P.Dense().MaxAbsDiff(ref.Levels[lvl].P) > 1e-13 {
				return false
			}
			if c.Levels[lvl].R.Dense().MaxAbsDiff(ref.Levels[lvl].R) > 1e-13 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The pooled workspaces must not leak state between levels or chains:
// building twice (warm pool) has to reproduce the cold-pool result.
func TestStructuredBuildPoolReuse(t *testing.T) {
	net := gridNet(3)
	first, err := NewChain(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewChain(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		a, b := first.Levels[k], second.Levels[k]
		if d := a.P.Dense().MaxAbsDiff(b.P.Dense()); d != 0 {
			t.Fatalf("level %d: warm-pool P differs by %g", k, d)
		}
		if d := a.R.Dense().MaxAbsDiff(b.R.Dense()); d != 0 {
			t.Fatalf("level %d: warm-pool R differs by %g", k, d)
		}
	}
}
