package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"finwl/internal/check"
	"finwl/internal/cluster"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/par"
	"finwl/internal/phase"
	"finwl/internal/statespace"
	"finwl/internal/workload"
)

func singleStation(kind statespace.Kind, svc *phase.PH) *network.Network {
	return &network.Network{
		Stations: []network.Station{{Name: "s", Kind: kind, Service: svc}},
		Route:    matrix.New(1, 1),
		Exit:     []float64{1},
		Entry:    []float64{1},
	}
}

func mustSolver(t *testing.T, net *network.Network, k int) *Solver {
	t.Helper()
	s, err := NewSolver(net, k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// A single FCFS queue serves one task at a time: E(T) = N·E(S)
// regardless of K and of the service distribution.
func TestSingleQueueIsSequential(t *testing.T) {
	for _, svc := range []*phase.PH{
		phase.MustExpo(2),
		phase.MustErlangMean(3, 1.7),
		phase.MustHyperExpFit(2.5, 12),
	} {
		s := mustSolver(t, singleStation(statespace.Queue, svc), 3)
		for _, n := range []int{1, 3, 7} {
			got, err := s.TotalTime(n)
			if err != nil {
				t.Fatal(err)
			}
			approx(t, got, float64(n)*svc.Mean(), 1e-9, "E(T) single queue")
		}
		// Every epoch equals one full mean service time.
		r, err := s.Solve(5)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range r.Epochs {
			approx(t, e, svc.Mean(), 1e-9, "epoch "+string(rune('0'+i)))
		}
	}
}

// A single exponential delay station with K in service: feeding epochs
// are 1/(Kµ), draining gives the harmonic tail — E(T) =
// (N−K)/(Kµ) + H_K/µ.
func TestSingleDelayExponentialHarmonic(t *testing.T) {
	mu := 1.5
	for k := 1; k <= 5; k++ {
		s := mustSolver(t, singleStation(statespace.Delay, phase.MustExpo(mu)), k)
		for _, n := range []int{k, k + 4} {
			var want float64
			want = float64(n-k) / (float64(k) * mu)
			for j := 1; j <= k; j++ {
				want += 1 / (float64(j) * mu)
			}
			got, err := s.TotalTime(n)
			if err != nil {
				t.Fatal(err)
			}
			approx(t, got, want, 1e-9, "E(T) delay harmonic")
		}
	}
}

// K=2 tasks on a delay station, N=2: E(T) = E[max(X₁,X₂)]. For H2,
// E[max] = 2E[X] − ∫R(t)²dt in closed form. This exercises R₂, Q₂,
// Y₂ and the phase bookkeeping end to end.
func TestDelayMaxOfTwoHyperexponential(t *testing.T) {
	d := phase.MustHyperExpFit(2, 8)
	p, mu1, mu2 := d.Alpha[0], d.Rates[0], d.Rates[1]
	eMin := p*p/(2*mu1) + 2*p*(1-p)/(mu1+mu2) + (1-p)*(1-p)/(2*mu2)
	want := 2*d.Mean() - eMin
	s := mustSolver(t, singleStation(statespace.Delay, d), 2)
	got, err := s.TotalTime(2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, got, want, 1e-9, "E[max of 2 H2]")
}

// Same for Erlang-2: E[min] = ∫R(t)² dt with R(t) = e^{−µt}(1+µt):
// ∫ e^{−2µt}(1+µt)² dt = 1/(2µ) + 2µ/(4µ²)·... computed numerically
// here to keep the test independent of hand algebra.
func TestDelayMaxOfTwoErlang(t *testing.T) {
	d := phase.MustErlang(2, 2) // mean 1
	mu := 2.0
	// ∫₀^∞ [e^{−µt}(1+µt)]² dt
	f := func(tt float64) float64 {
		r := math.Exp(-mu*tt) * (1 + mu*tt)
		return r * r
	}
	var eMin float64
	const h = 1e-4
	for x := 0.0; x < 20; x += h {
		eMin += h * (f(x) + f(x+h)) / 2
	}
	want := 2*d.Mean() - eMin
	s := mustSolver(t, singleStation(statespace.Delay, d), 2)
	got, err := s.TotalTime(2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, got, want, 1e-6, "E[max of 2 Erlang-2]")
}

// centralCluster builds the paper's §5.4 example with sensible rates.
func centralCluster(k int, rdisk *phase.PH) *network.Network {
	q, p1, p2 := 0.1, 0.5, 0.5
	route := matrix.New(4, 4)
	route.Set(0, 1, p1*(1-q))
	route.Set(0, 2, p2*(1-q))
	route.Set(1, 0, 1)
	route.Set(2, 3, 1)
	route.Set(3, 0, 1)
	return &network.Network{
		Stations: []network.Station{
			{Name: "CPU", Kind: statespace.Delay, Service: phase.MustExpo(1 / 0.3)},
			{Name: "Disk", Kind: statespace.Delay, Service: phase.MustExpo(1 / 0.6)},
			{Name: "Comm", Kind: statespace.Queue, Service: phase.MustExpo(1 / 0.2)},
			{Name: "RDisk", Kind: statespace.Queue, Service: rdisk},
		},
		Route: route,
		Exit:  []float64{q, 0, 0, 0},
		Entry: []float64{1, 0, 0, 0},
	}
}

func TestSolveEpochCountAndMonotonicity(t *testing.T) {
	net := centralCluster(4, phase.MustExpoMean(1.0))
	s := mustSolver(t, net, 4)
	r, err := s.Solve(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Epochs) != 12 || len(r.Departures) != 12 {
		t.Fatalf("epochs %d, departures %d, want 12", len(r.Epochs), len(r.Departures))
	}
	for i := 1; i < 12; i++ {
		if r.Departures[i] <= r.Departures[i-1] {
			t.Fatalf("departure times not increasing at %d", i)
		}
	}
	var sum float64
	for _, e := range r.Epochs {
		sum += e
	}
	approx(t, r.TotalTime, sum, 1e-12, "TotalTime vs Σ epochs")
}

// N < K is served by a smaller effective level.
func TestSolveSmallWorkload(t *testing.T) {
	net := centralCluster(4, phase.MustExpoMean(1.0))
	s := mustSolver(t, net, 4)
	r, err := s.Solve(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.K != 2 || len(r.Epochs) != 2 {
		t.Fatalf("K=%d epochs=%d, want 2/2", r.K, len(r.Epochs))
	}
	// And it must agree with a solver built for K=2.
	s2 := mustSolver(t, net, 2)
	want, err := s2.TotalTime(2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.TotalTime, want, 1e-10, "N<K total time")
}

// The H2 sequential-queue identity at one point, K=3 and N=7, held to
// the tolerance the iterative solver was held to.
func TestSparseSingleQueueSequential(t *testing.T) {
	svc := phase.MustHyperExpFit(2, 6)
	net := singleStation(statespace.Queue, svc)
	net.Stations[0].Name = "q"
	total, err := mustSolver(t, net, 3).TotalTime(7)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, total, 7*svc.Mean(), 1e-8, "sequential queue")
}

func TestSparseRejectsBadInput(t *testing.T) {
	net := singleStation(statespace.Queue, phase.MustExpo(1))
	s := mustSolver(t, net, 2)
	if _, err := s.Solve(0); err == nil {
		t.Fatal("Solve(0) succeeded")
	}
	if _, err := NewSolver(net, 0); err == nil {
		t.Fatal("NewSolver with K=0 succeeded")
	}
}

func TestSolveRejectsBadN(t *testing.T) {
	net := singleStation(statespace.Queue, phase.MustExpo(1))
	s := mustSolver(t, net, 1)
	if _, err := s.Solve(0); err == nil {
		t.Fatal("Solve(0) succeeded")
	}
	if _, err := s.TotalTime(-2); err == nil {
		t.Fatal("TotalTime(-2) succeeded")
	}
	if _, err := NewSolver(net, 0); err == nil {
		t.Fatal("NewSolver with K=0 succeeded")
	}
}

// Depart keeps probability mass: Y_k is stochastic.
func TestDepartIsStochastic(t *testing.T) {
	net := centralCluster(3, phase.MustHyperExpFit(1, 10))
	s := mustSolver(t, net, 3)
	pi := s.EntryVector(3)
	for k := 3; k >= 1; k-- {
		if math.Abs(matrix.VecSum(pi)-1) > 1e-10 {
			t.Fatalf("level %d: distribution sums to %v", k, matrix.VecSum(pi))
		}
		if k > 1 {
			pi = s.Depart(k, pi)
		}
	}
}

func TestFeedIsStochastic(t *testing.T) {
	net := centralCluster(3, phase.MustHyperExpFit(1, 10))
	s := mustSolver(t, net, 3)
	pi := s.EntryVector(3)
	for i := 0; i < 10; i++ {
		pi = s.Feed(3, pi)
		if math.Abs(matrix.VecSum(pi)-1) > 1e-10 {
			t.Fatalf("feed %d: sums to %v", i, matrix.VecSum(pi))
		}
	}
}

// The transient epochs converge to the steady-state inter-departure
// time, and both steady-state methods agree.
func TestSteadyStateConvergence(t *testing.T) {
	net := centralCluster(4, phase.MustHyperExpFit(1.0, 5))
	s := mustSolver(t, net, 4)
	piD, tssD, err := s.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	piP, err := s.steadyPower(context.Background(), s.K)
	if err != nil {
		t.Fatal(err)
	}
	if matrix.VecMaxAbsDiff(piD, piP) > 1e-8 {
		t.Fatal("direct and power-iteration steady states disagree")
	}
	r, err := s.Solve(300)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch deep inside the feeding region ≈ t_ss.
	mid := r.Epochs[150]
	approx(t, mid, tssD, 1e-6, "mid-run epoch vs t_ss")
}

// Fixed point property: feeding the steady state returns it.
func TestSteadyStateIsFixedPoint(t *testing.T) {
	net := centralCluster(3, phase.MustHyperExpFit(1.0, 20))
	s := mustSolver(t, net, 3)
	pi, _, err := s.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	next := s.Feed(3, pi)
	if matrix.VecMaxAbsDiff(pi, next) > 1e-9 {
		t.Fatal("steady state is not a fixed point of Feed")
	}
}

// The approximation converges to the exact total time for large N
// (relative error vanishes) and is close even for moderate N.
func TestApproxTotalTime(t *testing.T) {
	net := centralCluster(4, phase.MustExpoMean(0.8))
	s := mustSolver(t, net, 4)
	for _, n := range []int{10, 50, 400} {
		exact, err := s.TotalTime(n)
		if err != nil {
			t.Fatal(err)
		}
		appr, err := s.ApproxTotalTime(n)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(appr-exact) / exact
		bound := 0.05
		if n >= 400 {
			bound = 0.002
		}
		if relErr > bound {
			t.Fatalf("N=%d: approximation error %v > %v (exact %v, approx %v)", n, relErr, bound, exact, appr)
		}
	}
	// N ≤ K falls back to exact.
	exact, _ := s.TotalTime(3)
	appr, _ := s.ApproxTotalTime(3)
	approx(t, appr, exact, 1e-12, "N<=K approx")
}

// Property: for random small exponential networks, E(T) is additive
// over the epochs, distributions stay normalized, and total time is
// monotone in N.
func TestSolveMonotoneInNProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		net := randomNet(r)
		s, err := NewSolver(net, 1+r.Intn(3))
		if err != nil {
			return false
		}
		prev := 0.0
		for n := 1; n <= 6; n++ {
			tt, err := s.TotalTime(n)
			if err != nil || tt <= prev {
				return false
			}
			prev = tt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func randomNet(r *rand.Rand) *network.Network {
	m := 1 + r.Intn(3)
	stations := make([]network.Station, m)
	for i := range stations {
		kind := statespace.Delay
		if r.Intn(2) == 0 {
			kind = statespace.Queue
		}
		var svc *phase.PH
		switch r.Intn(3) {
		case 0:
			svc = phase.MustExpo(0.5 + 2*r.Float64())
		case 1:
			svc = phase.MustErlangMean(2, 0.5+r.Float64())
		default:
			svc = phase.MustHyperExpFit(0.5+r.Float64(), 1+4*r.Float64())
		}
		stations[i] = network.Station{Name: string(rune('A' + i)), Kind: kind, Service: svc}
	}
	route := matrix.New(m, m)
	exit := make([]float64, m)
	for i := 0; i < m; i++ {
		exit[i] = 0.25 + 0.5*r.Float64()
		remain := 1 - exit[i]
		w := make([]float64, m)
		var sum float64
		for j := range w {
			w[j] = r.Float64()
			sum += w[j]
		}
		for j := range w {
			route.Set(i, j, remain*w[j]/sum)
		}
	}
	entry := make([]float64, m)
	entry[r.Intn(m)] = 1
	return &network.Network{Stations: stations, Route: route, Exit: exit, Entry: entry}
}

// Property: first-epoch time equals the single-task mean when K=1,
// for any service distribution mix (the network is then a PH renewal
// process: E(T) = N·mean).
func TestK1RenewalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		net := randomNet(r)
		s, err := NewSolver(net, 1)
		if err != nil {
			return false
		}
		mean := net.AsPH().Mean()
		n := 1 + r.Intn(6)
		tt, err := s.TotalTime(n)
		if err != nil {
			return false
		}
		return math.Abs(tt-float64(n)*mean) < 1e-8*math.Max(1, float64(n)*mean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTauPositive(t *testing.T) {
	net := centralCluster(4, phase.MustHyperExpFit(1, 50))
	s := mustSolver(t, net, 4)
	for k := 1; k <= 4; k++ {
		for i, v := range s.Tau(k) {
			if v <= 0 {
				t.Fatalf("τ'_%d[%d] = %v", k, i, v)
			}
		}
	}
}

func TestCheckLevelPanics(t *testing.T) {
	s := mustSolver(t, singleStation(statespace.Queue, phase.MustExpo(1)), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Tau(0) did not panic")
		}
	}()
	s.Tau(0)
}

// The root package's parallel-construction guard times the central
// K=10 cluster with an H2 remote disk because its modeled factor cost
// lies above par's serial/parallel cutover: with more than one
// processor, its default build really runs the worker pool.
func TestParallelGuardChainAboveCutover(t *testing.T) {
	const K = 10
	net, err := cluster.Central(K, workload.Default(30), cluster.Dists{Remote: cluster.WithCV2(10)}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := network.NewChain(net, K)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for k := 1; k <= K; k++ {
		total += factorCost(chain.Levels[k])
	}
	if total < par.MinParallelCost {
		t.Fatalf("Σ factorCost = %d, below the parallel cutover %d", total, par.MinParallelCost)
	}
}

// A network whose tasks can cycle forever without departing passes
// validation but makes I − P_k singular: the level factorization
// refuses it on κ₁ with a check.ErrSingular error naming the level.
func TestTrappedLevelIsSingular(t *testing.T) {
	route := matrix.New(2, 2)
	route.Set(0, 1, 1)
	route.Set(1, 0, 1)
	net := &network.Network{
		Stations: []network.Station{
			{Name: "cpu", Kind: statespace.Delay, Service: phase.MustExpo(2)},
			{Name: "io", Kind: statespace.Queue, Service: phase.MustExpo(3)},
		},
		Route: route,
		Exit:  []float64{0, 0},
		Entry: []float64{1, 0},
	}
	_, err := NewSolver(net, 3)
	if !errors.Is(err, check.ErrSingular) || !strings.Contains(err.Error(), "level 3: I−P_k has condition estimate") {
		t.Fatalf("err = %v, want a level-3 condition refusal matching check.ErrSingular", err)
	}
}
