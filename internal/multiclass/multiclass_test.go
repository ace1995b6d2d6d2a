package multiclass

import (
	"errors"
	"math"
	"testing"

	"finwl/internal/check"
	"finwl/internal/core"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// twoClassCfg builds a central-cluster-like 3-station network (CPU
// delay, Comm queue, Disk queue) with per-class rates.
func twoClassCfg(cpuRates, commRates, diskRates [2]float64, q float64) *Config {
	routes := make([]*matrix.Matrix, 2)
	exits := make([][]float64, 2)
	entries := make([][]float64, 2)
	for c := 0; c < 2; c++ {
		r := matrix.New(3, 3)
		r.Set(0, 1, (1-q)/2) // CPU → Comm
		r.Set(0, 2, (1-q)/2) // CPU → Disk
		r.Set(1, 0, 1)
		r.Set(2, 0, 1)
		routes[c] = r
		exits[c] = []float64{q, 0, 0}
		entries[c] = []float64{1, 0, 0}
	}
	return &Config{
		Stations: []Station{
			{Name: "CPU", Kind: statespace.Delay},
			{Name: "Comm", Kind: statespace.Queue},
			{Name: "Disk", Kind: statespace.Queue},
		},
		Classes: 2,
		Rates: [][]float64{
			{cpuRates[0], cpuRates[1]},
			{commRates[0], commRates[1]},
			{diskRates[0], diskRates[1]},
		},
		Route: routes,
		Exit:  exits,
		Entry: entries,
	}
}

func approx(t *testing.T, got, want, relTol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > relTol*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// With both classes identical, the multiclass solver must reproduce
// the single-class core solver exactly, whatever the class split.
func TestIdenticalClassesMatchSingleClass(t *testing.T) {
	cfg := twoClassCfg([2]float64{2, 2}, [2]float64{3, 3}, [2]float64{1.5, 1.5}, 0.25)
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The equivalent single-class network.
	route := matrix.New(3, 3)
	route.Set(0, 1, 0.375)
	route.Set(0, 2, 0.375)
	route.Set(1, 0, 1)
	route.Set(2, 0, 1)
	single := &network.Network{
		Stations: []network.Station{
			{Name: "CPU", Kind: statespace.Delay, Service: phase.MustExpo(2)},
			{Name: "Comm", Kind: statespace.Queue, Service: phase.MustExpo(3)},
			{Name: "Disk", Kind: statespace.Queue, Service: phase.MustExpo(1.5)},
		},
		Route: route,
		Exit:  []float64{0.25, 0, 0},
		Entry: []float64{1, 0, 0},
	}
	sc, err := core.NewSolver(single, 3)
	if err != nil {
		t.Fatal(err)
	}

	for _, counts := range [][]int{{6, 0}, {3, 3}, {2, 4}} {
		for _, policy := range []Policy{Proportional, PriorityOrder} {
			res, err := s.Solve(Workload{Counts: counts, K: 3, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			want, err := sc.TotalTime(6)
			if err != nil {
				t.Fatal(err)
			}
			approx(t, res.TotalTime, want, 1e-9, "identical classes vs single class")
		}
	}
}

// A single queue serves sequentially: E(T) = Σ N_c/µ_c for any
// admission policy and K.
func TestSingleQueueSequentialMix(t *testing.T) {
	cfg := &Config{
		Stations: []Station{{Name: "q", Kind: statespace.Queue}},
		Classes:  2,
		Rates:    [][]float64{{2, 0.5}},
		Route:    []*matrix.Matrix{matrix.New(1, 1), matrix.New(1, 1)},
		Exit:     [][]float64{{1}, {1}},
		Entry:    [][]float64{{1}, {1}},
	}
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{Proportional, PriorityOrder} {
		res, err := s.Solve(Workload{Counts: []int{3, 2}, K: 2, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		want := 3.0/2 + 2.0/0.5
		approx(t, res.TotalTime, want, 1e-9, "sequential mixed queue")
		if len(res.Epochs) != 5 {
			t.Fatalf("epochs %d, want 5", len(res.Epochs))
		}
	}
}

// Admission order matters on a delay station: starting the slow class
// first shortens the makespan (LPT intuition). Class 0 slow, class 1
// fast; PriorityOrder admits class 0 first.
func TestPolicyEffectOnDelayStation(t *testing.T) {
	cfgSlowFirst := &Config{
		Stations: []Station{{Name: "d", Kind: statespace.Delay}},
		Classes:  2,
		Rates:    [][]float64{{0.25, 2}}, // class 0 mean 4, class 1 mean 0.5
		Route:    []*matrix.Matrix{matrix.New(1, 1), matrix.New(1, 1)},
		Exit:     [][]float64{{1}, {1}},
		Entry:    [][]float64{{1}, {1}},
	}
	s, err := NewSolver(cfgSlowFirst)
	if err != nil {
		t.Fatal(err)
	}
	slowFirst, err := s.Solve(Workload{Counts: []int{2, 6}, K: 2, Policy: PriorityOrder})
	if err != nil {
		t.Fatal(err)
	}
	// Swap class order → fast first under PriorityOrder.
	cfgFastFirst := &Config{
		Stations: cfgSlowFirst.Stations,
		Classes:  2,
		Rates:    [][]float64{{2, 0.25}},
		Route:    cfgSlowFirst.Route,
		Exit:     cfgSlowFirst.Exit,
		Entry:    cfgSlowFirst.Entry,
	}
	s2, err := NewSolver(cfgFastFirst)
	if err != nil {
		t.Fatal(err)
	}
	fastFirst, err := s2.Solve(Workload{Counts: []int{6, 2}, K: 2, Policy: PriorityOrder})
	if err != nil {
		t.Fatal(err)
	}
	if slowFirst.TotalTime >= fastFirst.TotalTime {
		t.Fatalf("slow-first %v should beat fast-first %v", slowFirst.TotalTime, fastFirst.TotalTime)
	}
}

// The analytic solution must sit inside the simulator's CI for a
// genuinely heterogeneous workload, both policies.
func TestMulticlassSimAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation in -short mode")
	}
	cfg := twoClassCfg([2]float64{2, 0.8}, [2]float64{4, 2}, [2]float64{1.2, 0.6}, 0.2)
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []Policy{Proportional, PriorityOrder} {
		w := Workload{Counts: []int{5, 4}, K: 3, Policy: policy}
		res, err := s.Solve(w)
		if err != nil {
			t.Fatal(err)
		}
		mean, ci, err := Replicate(cfg, w, 11, 8000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-res.TotalTime) > 4*ci {
			t.Fatalf("policy %v: sim %v ± %v vs analytic %v", policy, mean, ci, res.TotalTime)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	good := twoClassCfg([2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1}, 0.5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, spoil := range map[string]func(*Config){
		"negative rate":     func(c *Config) { c.Rates[0][1] = -1 },
		"NaN rate":          func(c *Config) { c.Rates[1][0] = math.NaN() },
		"+Inf rate":         func(c *Config) { c.Rates[2][1] = math.Inf(1) },
		"NaN exit":          func(c *Config) { c.Exit[0][0] = math.NaN() },
		"NaN routing":       func(c *Config) { c.Route[1].Set(0, 1, math.NaN()) },
		"+Inf entry":        func(c *Config) { c.Entry[0][1] = math.Inf(1) },
		"entry sum not 1":   func(c *Config) { c.Entry[1] = []float64{0.5, 0, 0} },
		"short entry":       func(c *Config) { c.Entry[1] = []float64{1} },
		"nil routing":       func(c *Config) { c.Route[0] = nil },
		"multi station":     func(c *Config) { c.Stations[0].Kind = statespace.Multi },
		"class never exits": func(c *Config) { c.Exit[1][0] = 0; c.Route[1].Set(0, 1, 0.75) },
	} {
		bad := twoClassCfg([2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1}, 0.5)
		spoil(bad)
		if err := bad.Validate(); !errors.Is(err, check.ErrInvalidModel) {
			t.Errorf("%s: Validate = %v, want ErrInvalidModel", name, err)
		}
		if _, _, err := Replicate(bad, Workload{Counts: []int{2, 2}, K: 2}, 1, 4); !errors.Is(err, check.ErrInvalidModel) {
			t.Errorf("%s: Replicate = %v, want ErrInvalidModel", name, err)
		}
	}
	if _, _, err := Replicate(good, Workload{Counts: []int{2, 2}, K: 2}, 1, 1); !errors.Is(err, check.ErrInvalidModel) {
		t.Errorf("Replicate with one replication = %v, want ErrInvalidModel", err)
	}
}

// A class with no way out would circulate forever: the solver and the
// simulator must both refuse it up front, typed, instead of failing to
// factor or running without end.
func TestTrappedClassRefused(t *testing.T) {
	cfg := twoClassCfg([2]float64{2, 0.8}, [2]float64{4, 2}, [2]float64{1.2, 0.6}, 0)
	if err := cfg.Validate(); !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("Validate = %v, want ErrInvalidModel", err)
	}
	if _, err := NewSolver(cfg); !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("NewSolver = %v, want ErrInvalidModel", err)
	}
	if _, err := Simulate(cfg, Workload{Counts: []int{2, 1}, K: 2}, 1); !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("Simulate = %v, want ErrInvalidModel", err)
	}
	// A station the entry vector never reaches may be a dead end.
	cfg = twoClassCfg([2]float64{2, 0.8}, [2]float64{4, 2}, [2]float64{1.2, 0.6}, 0.5)
	for c := 0; c < 2; c++ {
		cfg.Route[c].Set(0, 2, 0)
		cfg.Route[c].Set(0, 1, 0.5)
		cfg.Route[c].Set(2, 0, 0)
		cfg.Route[c].Set(2, 2, 1) // Disk loops on itself, but nothing enters it
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("unreachable dead end refused: %v", err)
	}
}

// Replicate runs its replications in parallel; the result must still
// be the same bits on every call.
func TestReplicateDeterministic(t *testing.T) {
	cfg := twoClassCfg([2]float64{2, 0.8}, [2]float64{4, 2}, [2]float64{1.2, 0.6}, 0.2)
	w := Workload{Counts: []int{5, 4}, K: 3, Policy: Proportional}
	m1, ci1, err := Replicate(cfg, w, 3, 256)
	if err != nil {
		t.Fatal(err)
	}
	m2, ci2, err := Replicate(cfg, w, 3, 256)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(m1) != math.Float64bits(m2) || math.Float64bits(ci1) != math.Float64bits(ci2) {
		t.Fatalf("Replicate not deterministic: %v ± %v vs %v ± %v", m1, ci1, m2, ci2)
	}
}

func TestSolveRejections(t *testing.T) {
	cfg := twoClassCfg([2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1}, 0.5)
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(Workload{Counts: []int{1}, K: 1}); err == nil {
		t.Fatal("accepted wrong class count length")
	}
	if _, err := s.Solve(Workload{Counts: []int{0, 0}, K: 1}); err == nil {
		t.Fatal("accepted empty workload")
	}
	if _, err := s.Solve(Workload{Counts: []int{1, 1}, K: 0}); err == nil {
		t.Fatal("accepted K=0")
	}
	if _, err := s.Solve(Workload{Counts: []int{-1, 2}, K: 1}); err == nil {
		t.Fatal("accepted negative count")
	}
}

// Mirror of the single-class cross-check: the analytic multiclass
// solution for a heterogeneous two-class central cluster must agree
// with the single-class solver when classes are merged appropriately
// (probabilistic class assignment == mixing at the task level is NOT
// an identity, so instead verify total time monotonicity: adding a
// slower class extends the job).
func TestSlowerClassExtendsJob(t *testing.T) {
	fast := twoClassCfg([2]float64{2, 2}, [2]float64{4, 4}, [2]float64{1.5, 1.5}, 0.25)
	mixed := twoClassCfg([2]float64{2, 1}, [2]float64{4, 2}, [2]float64{1.5, 0.75}, 0.25)
	sFast, err := NewSolver(fast)
	if err != nil {
		t.Fatal(err)
	}
	sMixed, err := NewSolver(mixed)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Counts: []int{4, 3}, K: 3, Policy: Proportional}
	a, err := sFast.Solve(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sMixed.Solve(w)
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalTime <= a.TotalTime {
		t.Fatalf("slower class 1 should extend the job: %v vs %v", b.TotalTime, a.TotalTime)
	}
}
