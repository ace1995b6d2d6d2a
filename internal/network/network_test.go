package network

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"finwl/internal/matrix"
	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// singleExpNet is one exponential station, exit after service.
func singleExpNet(mu float64, kind statespace.Kind) *Network {
	route := matrix.New(1, 1)
	return &Network{
		Stations: []Station{{Name: "s", Kind: kind, Service: phase.MustExpo(mu)}},
		Route:    route,
		Exit:     []float64{1},
		Entry:    []float64{1},
	}
}

// paperCentralNet builds the §5.4 four-station central-cluster chain
// with the given routing parameters and rates.
func paperCentralNet(q, p1, p2, muCPU, muD, muCom, muRD float64) *Network {
	route := matrix.New(4, 4)
	route.Set(0, 1, p1*(1-q)) // CPU → Disk
	route.Set(0, 2, p2*(1-q)) // CPU → Comm
	route.Set(1, 0, 1)        // Disk → CPU
	route.Set(2, 3, 1)        // Comm → RDisk
	route.Set(3, 0, 1)        // RDisk → CPU
	return &Network{
		Stations: []Station{
			{Name: "CPU", Kind: statespace.Delay, Service: phase.MustExpo(muCPU)},
			{Name: "Disk", Kind: statespace.Delay, Service: phase.MustExpo(muD)},
			{Name: "Comm", Kind: statespace.Queue, Service: phase.MustExpo(muCom)},
			{Name: "RDisk", Kind: statespace.Queue, Service: phase.MustExpo(muRD)},
		},
		Route: route,
		Exit:  []float64{q, 0, 0, 0},
		Entry: []float64{1, 0, 0, 0},
	}
}

func TestValidateGood(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadRouting(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	n.Route.Set(0, 1, 0.99) // row 0 no longer sums with exit to 1
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted broken routing row")
	}
	n2 := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	n2.Entry[0] = 0.5
	if err := n2.Validate(); err == nil {
		t.Fatal("Validate accepted entry sum != 1")
	}
}

func TestAsPHSingleStationIsExponential(t *testing.T) {
	n := singleExpNet(2.5, statespace.Delay)
	d := n.AsPH()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-0.4) > 1e-12 {
		t.Fatalf("mean = %v, want 0.4", d.Mean())
	}
	if math.Abs(d.CV2()-1) > 1e-9 {
		t.Fatalf("C² = %v, want 1", d.CV2())
	}
}

// Paper §5.4: pV = [t_cpu/q, t_d·p1(1−q)/q, t_com·p2(1−q)/q,
// t_rd·p2(1−q)/q].
func TestTimeComponentsMatchPaperFormula(t *testing.T) {
	q, p1, p2 := 0.1, 0.4, 0.6
	muCPU, muD, muCom, muRD := 3.0, 1.5, 4.0, 0.75
	n := paperCentralNet(q, p1, p2, muCPU, muD, muCom, muRD)
	got, err := n.TimeComponents()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{
		(1 / muCPU) / q,
		(1 / muD) * p1 * (1 - q) / q,
		(1 / muCom) * p2 * (1 - q) / q,
		(1 / muRD) * p2 * (1 - q) / q,
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("pV[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVisitRatios(t *testing.T) {
	q := 0.2
	n := paperCentralNet(q, 0.5, 0.5, 1, 1, 1, 1)
	v, err := n.VisitRatios()
	if err != nil {
		t.Fatal(err)
	}
	// CPU is visited 1/q times on average; Disk p1(1−q)/q times;
	// Comm and RDisk p2(1−q)/q times.
	if math.Abs(v[0]-1/q) > 1e-9 {
		t.Fatalf("CPU visits = %v, want %v", v[0], 1/q)
	}
	if math.Abs(v[1]-0.5*(1-q)/q) > 1e-9 {
		t.Fatalf("Disk visits = %v", v[1])
	}
	if math.Abs(v[2]-v[3]) > 1e-12 {
		t.Fatal("Comm and RDisk visit ratios should match")
	}
}

func TestAsPHMeanEqualsSumOfTimeComponents(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 2, 1, 5, 0.5)
	mean := n.AsPH().Mean()
	var sum float64
	tc, err := n.TimeComponents()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range tc {
		sum += v
	}
	if math.Abs(mean-sum) > 1e-9 {
		t.Fatalf("AsPH mean %v != Σ time components %v", mean, sum)
	}
}

func TestChainBasicShapes(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	c, err := NewChain(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	// D(k) = C(k+3, k) for 4 exponential stations.
	for k, want := range map[int]int{0: 1, 1: 4, 2: 10, 3: 20} {
		if got := c.D(k); got != want {
			t.Fatalf("D(%d) = %d, want %d", k, got, want)
		}
	}
}

// Stochasticity invariants: P_k+Q_k and R_k rows sum to 1; MDiag > 0.
func checkChainStochastic(t *testing.T, c *Chain, tol float64) {
	t.Helper()
	for k := 1; k < len(c.Levels); k++ {
		lvl := c.Levels[k]
		d := lvl.States.Count()
		pSums, qSums := lvl.P.RowSums(), lvl.Q.RowSums()
		for i := 0; i < d; i++ {
			if lvl.MDiag[i] <= 0 {
				t.Fatalf("level %d: MDiag[%d] = %v", k, i, lvl.MDiag[i])
			}
			if rowSum := pSums[i] + qSums[i]; math.Abs(rowSum-1) > tol {
				t.Fatalf("level %d: (P+Q) row %d sums to %v", k, i, rowSum)
			}
		}
		rSums := lvl.R.RowSums()
		for i := 0; i < c.Levels[k-1].States.Count(); i++ {
			if s := rSums[i]; math.Abs(s-1) > tol {
				t.Fatalf("level %d: R row %d sums to %v", k, i, s)
			}
		}
	}
}

func TestChainStochasticExponential(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	c, err := NewChain(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkChainStochastic(t, c, 1e-12)
}

func TestChainStochasticWithPhases(t *testing.T) {
	// Erlang-3 CPU (delay) and H2 remote disk (queue): the §5.4.1 and
	// §6.1 constructions combined.
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	n.Stations[0].Service = phase.MustErlangMean(3, 1.0)
	n.Stations[3].Service = phase.MustHyperExpFit(2, 10)
	c, err := NewChain(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkChainStochastic(t, c, 1e-12)
}

func TestEntryVectorIsDistribution(t *testing.T) {
	n := paperCentralNet(0.15, 0.3, 0.7, 1, 2, 3, 4)
	n.Stations[3].Service = phase.MustHyperExpFit(1, 4)
	c, err := NewChain(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		p := c.EntryVector(k)
		if len(p) != c.D(k) {
			t.Fatalf("EntryVector(%d) length %d, want %d", k, len(p), c.D(k))
		}
		if math.Abs(matrix.VecSum(p)-1) > 1e-12 {
			t.Fatalf("EntryVector(%d) sums to %v", k, matrix.VecSum(p))
		}
	}
	// With entry at the CPU only and exponential CPU, after K entries
	// every task sits at the CPU: p_K should be a unit vector.
	n2 := paperCentralNet(0.15, 0.3, 0.7, 1, 2, 3, 4)
	c2, err := NewChain(n2, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := c2.EntryVector(3)
	nonZero := 0
	for _, v := range p {
		if v > 1e-15 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("p_K has %d non-zero entries, want 1", nonZero)
	}
}

// randomExpNetwork builds a random all-exponential network for
// property tests: every station exits with probability ≥ 0.2 so the
// single-task chain is absorbing.
func randomExpNetwork(r *rand.Rand, m int) *Network {
	stations := make([]Station, m)
	for i := range stations {
		kind := statespace.Delay
		if r.Intn(2) == 0 {
			kind = statespace.Queue
		}
		stations[i] = Station{
			Name:    string(rune('A' + i)),
			Kind:    kind,
			Service: phase.MustExpo(0.5 + 3*r.Float64()),
		}
	}
	route := matrix.New(m, m)
	exit := make([]float64, m)
	for i := 0; i < m; i++ {
		exit[i] = 0.2 + 0.3*r.Float64()
		remain := 1 - exit[i]
		weights := make([]float64, m)
		var sum float64
		for j := range weights {
			weights[j] = r.Float64()
			sum += weights[j]
		}
		for j := range weights {
			route.Set(i, j, remain*weights[j]/sum)
		}
	}
	entry := make([]float64, m)
	var es float64
	for i := range entry {
		entry[i] = r.Float64()
		es += entry[i]
	}
	for i := range entry {
		entry[i] /= es
	}
	return &Network{Stations: stations, Route: route, Exit: exit, Entry: entry}
}

// Property: every random exponential network yields stochastic level
// matrices.
func TestChainStochasticProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomExpNetwork(r, 1+r.Intn(3))
		c, err := NewChain(n, 1+r.Intn(3))
		if err != nil {
			return false
		}
		for k := 1; k < len(c.Levels); k++ {
			lvl := c.Levels[k]
			pSums, qSums := lvl.P.RowSums(), lvl.Q.RowSums()
			for i := 0; i < lvl.States.Count(); i++ {
				if rowSum := pSums[i] + qSums[i]; math.Abs(rowSum-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The reduced space must be a strong lumping of the paper's full
// Kronecker product space.
func TestLumpCheckPaperCluster(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	for k := 1; k <= 3; k++ {
		if err := LumpCheck(n, k, 1e-9); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestLumpCheckRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomExpNetwork(r, 1+r.Intn(3))
		k := 1 + r.Intn(3)
		return LumpCheck(n, k, 1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestLumpCheckRejectsPhases(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	n.Stations[0].Service = phase.MustErlangMean(2, 1)
	if err := LumpCheck(n, 2, 1e-9); err == nil {
		t.Fatal("LumpCheck accepted a multi-phase station")
	}
}

func TestChainErrors(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	if _, err := NewChain(n, 0); err == nil {
		t.Fatal("NewChain accepted maxK=0")
	}
	n.Entry[0] = 2
	if _, err := NewChain(n, 1); err == nil {
		t.Fatal("NewChain accepted invalid network")
	}
}

// A fresh network is rejected at maxK=0 and, separately, when its
// entry vector is not a distribution.
func TestSparseChainErrors(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	if _, err := NewChain(n, 0); err == nil {
		t.Fatal("accepted maxK=0")
	}
	bad := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	bad.Entry[0] = 2
	if _, err := NewChain(bad, 1); err == nil {
		t.Fatal("accepted invalid network")
	}
}

// The chain supports the NNZ accounting the solver's scaling argument
// rests on: nnz per row stays bounded as D grows.
func TestSparseChainNNZBounded(t *testing.T) {
	n := paperCentralNet(0.1, 0.5, 0.5, 1, 2, 3, 4)
	c, err := NewChain(n, 6)
	if err != nil {
		t.Fatal(err)
	}
	lvl := c.Levels[6]
	d := lvl.States.Count()
	perRow := float64(lvl.P.NNZ()) / float64(d)
	if perRow > 30 {
		t.Fatalf("P has %.1f nnz per row — construction is not sparse", perRow)
	}
}
