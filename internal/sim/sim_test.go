package sim

import (
	"math"
	"math/rand"
	"testing"

	"finwl/internal/cluster"
	"finwl/internal/core"
	"finwl/internal/matrix"
	"finwl/internal/network"
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

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("accepted nil network")
	}
	n := singleStation(statespace.Queue, phase.MustExpo(1))
	if _, err := Run(Config{Net: n, K: 0, N: 1}); err == nil {
		t.Fatal("accepted K=0")
	}
	if _, err := Replicate(Config{Net: n, K: 1, N: 1}, 1); err == nil {
		t.Fatal("accepted reps=1")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	n := singleStation(statespace.Queue, phase.MustHyperExpFit(1, 5))
	a, err := Run(Config{Net: n, K: 2, N: 20, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Net: n, K: 2, N: 20, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total {
		t.Fatalf("same seed, different totals: %v vs %v", a.Total, b.Total)
	}
	c, _ := Run(Config{Net: n, K: 2, N: 20, Seed: 100})
	if a.Total == c.Total {
		t.Fatal("different seeds produced identical totals (suspicious)")
	}
}

// Replicate's result must not depend on how replications are
// partitioned over workers.
func TestReplicateDeterministicUnderParallelism(t *testing.T) {
	n := singleStation(statespace.Queue, phase.MustHyperExpFit(1, 8))
	a, err := Replicate(Config{Net: n, K: 2, N: 15, Seed: 7}, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replicate(Config{Net: n, K: 2, N: 15, Seed: 7}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanTotal != b.MeanTotal || a.TotalCI95 != b.TotalCI95 {
		t.Fatalf("parallel Replicate not deterministic: %v/%v vs %v/%v",
			a.MeanTotal, a.TotalCI95, b.MeanTotal, b.TotalCI95)
	}
	for i := range a.MeanEpochs {
		if a.MeanEpochs[i] != b.MeanEpochs[i] {
			t.Fatalf("epoch %d differs between runs", i)
		}
	}

	// The stream replications share the fan-out: open and closed mode.
	for _, sc := range []StreamConfig{
		{Net: n, K: 2, JobTasks: 3, Jobs: 3, Arrival: phase.MustExpo(0.5), Probes: []float64{1, 4}, Seed: 7},
		{Net: n, K: 2, JobTasks: 3, Customers: 2, Think: phase.MustExpo(0.5), Probes: []float64{1, 4}, Seed: 7},
	} {
		x, err := ReplicateStream(sc, 64)
		if err != nil {
			t.Fatal(err)
		}
		y, err := ReplicateStream(sc, 64)
		if err != nil {
			t.Fatal(err)
		}
		if x.MeanDrain != y.MeanDrain || x.DrainSE != y.DrainSE {
			t.Fatalf("parallel ReplicateStream drain not deterministic: %v/%v vs %v/%v", x.MeanDrain, x.DrainSE, y.MeanDrain, y.DrainSE)
		}
		for i := range x.MeanTasks {
			if x.MeanTasks[i] != y.MeanTasks[i] || x.TasksSE[i] != y.TasksSE[i] {
				t.Fatalf("probe %d differs between stream runs", i)
			}
		}
	}
}

// Once an open stream has drained, the event list runs empty; the
// probes past that point must read an empty system.
func TestStreamDrainedProbes(t *testing.T) {
	n := singleStation(statespace.Queue, phase.MustExpo(1))
	res, err := RunStream(StreamConfig{Net: n, K: 2, JobTasks: 3, Jobs: 2, Arrival: phase.MustExpo(1),
		Probes: []float64{0, 1e9, 2e9}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksAt[0] != 3 || res.TasksAt[1] != 0 || res.TasksAt[2] != 0 {
		t.Fatalf("tasks at probes %v, want [3 0 0]", res.TasksAt)
	}
	if !(res.Drain > 0 && res.Drain < 1e9) {
		t.Fatalf("drain %v, want a finite time before the late probes", res.Drain)
	}
}

func TestDeparturesSortedAndCounted(t *testing.T) {
	app := workload.Default(25)
	net, err := cluster.Central(4, app, cluster.Dists{}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Net: net, K: 4, N: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Departures) != 25 {
		t.Fatalf("departures %d, want 25", len(res.Departures))
	}
	for i := 1; i < len(res.Departures); i++ {
		if res.Departures[i] < res.Departures[i-1] {
			t.Fatal("departures not sorted")
		}
	}
}

// Sequential single queue: E(T) = N·E(S) for any distribution.
func TestSimSingleQueueMean(t *testing.T) {
	svc := phase.MustHyperExpFit(2, 8)
	net := singleStation(statespace.Queue, svc)
	rep, err := Replicate(Config{Net: net, K: 3, N: 10, Seed: 5}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * svc.Mean()
	if math.Abs(rep.MeanTotal-want) > 3*rep.TotalCI95 {
		t.Fatalf("sim total %v ± %v, analytic %v", rep.MeanTotal, rep.TotalCI95, want)
	}
}

// Delay station: harmonic draining formula.
func TestSimDelayHarmonic(t *testing.T) {
	mu := 1.25
	net := singleStation(statespace.Delay, phase.MustExpo(mu))
	k, n := 4, 12
	rep, err := Replicate(Config{Net: net, K: k, N: n, Seed: 11}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n-k) / (float64(k) * mu)
	for j := 1; j <= k; j++ {
		want += 1 / (float64(j) * mu)
	}
	if math.Abs(rep.MeanTotal-want) > 3*rep.TotalCI95 {
		t.Fatalf("sim %v ± %v, analytic %v", rep.MeanTotal, rep.TotalCI95, want)
	}
}

// The paper's validation, in reverse: the analytic transient model
// must sit inside the simulator's confidence interval for the central
// cluster — exponential and with a heavy-tailed shared server.
func TestSimMatchesAnalyticCentral(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation in -short mode")
	}
	app := workload.Default(15)
	for name, dists := range map[string]cluster.Dists{
		"exp":     {},
		"h2-rd":   {Remote: cluster.WithCV2(10)},
		"erl-cpu": {CPU: cluster.ErlangStages(3)},
	} {
		net, err := cluster.Central(3, app, dists, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewSolver(net, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.TotalTime(app.N)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Replicate(Config{Net: net, K: 3, N: app.N, Seed: 20}, 6000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.MeanTotal-want) > 4*rep.TotalCI95 {
			t.Errorf("%s: sim %v ± %v vs analytic %v", name, rep.MeanTotal, rep.TotalCI95, want)
		}
	}
}

// Per-epoch agreement: the interdeparture-time series (the paper's
// Figures 3/10) must match the simulation epoch means.
func TestSimEpochSeriesMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation in -short mode")
	}
	app := workload.Default(12)
	net, err := cluster.Central(3, app, cluster.Dists{Remote: cluster.WithCV2(5)}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSolver(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(app.N)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replicate(Config{Net: net, K: 3, N: app.N, Seed: 33}, 8000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Epochs {
		got := rep.MeanEpochs[i]
		want := res.Epochs[i]
		// Per-epoch noise is higher than total noise; allow 5%.
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("epoch %d: sim %v vs analytic %v", i+1, got, want)
		}
	}
}

// Sampler overrides: a constant-service override must produce the
// deterministic sequential total on a single queue.
func TestSamplerOverride(t *testing.T) {
	net := singleStation(statespace.Queue, phase.MustExpo(1))
	const d = 0.75
	cfg := Config{
		Net: net, K: 2, N: 6, Seed: 1,
		Samplers: []func(*rand.Rand) float64{func(*rand.Rand) float64 { return d }},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Total-6*d) > 1e-12 {
		t.Fatalf("deterministic service total %v, want %v", res.Total, 6*d)
	}
}

func TestTotalQuantile(t *testing.T) {
	net := singleStation(statespace.Queue, phase.MustHyperExpFit(1, 6))
	rep, err := Replicate(Config{Net: net, K: 1, N: 5, Seed: 2}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	q10, q50, q99 := rep.TotalQuantile(0.1), rep.TotalQuantile(0.5), rep.TotalQuantile(0.99)
	if !(q10 < q50 && q50 < q99) {
		t.Fatalf("quantiles out of order: %v %v %v", q10, q50, q99)
	}
	if len(rep.Totals) != 2000 {
		t.Fatalf("Totals length %d", len(rep.Totals))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("quantile out of range did not panic")
		}
	}()
	rep.TotalQuantile(1)
}

// Distributed cluster cross-check.
func TestSimMatchesAnalyticDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation in -short mode")
	}
	app := workload.Default(12)
	net, err := cluster.Distributed(3, app, cluster.Dists{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSolver(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.TotalTime(app.N)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replicate(Config{Net: net, K: 3, N: app.N, Seed: 44}, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MeanTotal-want) > 4*rep.TotalCI95 {
		t.Fatalf("sim %v ± %v vs analytic %v", rep.MeanTotal, rep.TotalCI95, want)
	}
}
