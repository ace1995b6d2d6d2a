package stream

import (
	"context"
	"errors"
	"math"
	"testing"

	"finwl/internal/check"
	"finwl/internal/cluster"
	"finwl/internal/ctmc"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/statespace"
	"finwl/internal/workload"
)

// testNet is a small two-station network: a single-server FCFS "cpu"
// with exponential service feeding an Erlang-2 "disk" delay pool, with
// half the cpu completions leaving the system.
func testNet() *network.Network {
	route := matrix.New(2, 2)
	route.Set(0, 1, 0.5)
	route.Set(1, 0, 1)
	return &network.Network{
		Stations: []network.Station{
			{Name: "cpu", Kind: statespace.Queue, Service: phase.MustExpo(2)},
			{Name: "disk", Kind: statespace.Delay, Service: phase.MustErlangMean(2, 0.8)},
		},
		Route: route,
		Exit:  []float64{0.5, 0},
		Entry: []float64{1, 0},
	}
}

func TestConfigValidation(t *testing.T) {
	net := testNet()
	arr := phase.MustExpoMean(1)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil network", Config{K: 2, JobTasks: 1, Jobs: 2, Arrival: arr}},
		{"zero K", Config{Net: net, JobTasks: 1, Jobs: 2, Arrival: arr}},
		{"zero JobTasks", Config{Net: net, K: 2, Jobs: 2, Arrival: arr}},
		{"no mode", Config{Net: net, K: 2, JobTasks: 1}},
		{"both modes", Config{Net: net, K: 2, JobTasks: 1, Jobs: 2, Arrival: arr, Customers: 2, Think: arr}},
		{"open without arrival", Config{Net: net, K: 2, JobTasks: 1, Jobs: 2}},
		{"closed without think", Config{Net: net, K: 2, JobTasks: 1, Customers: 2}},
		{"negative MaxStates", Config{Net: net, K: 2, JobTasks: 1, Jobs: 2, Arrival: arr, MaxStates: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("validation passed")
			}
			if !errors.Is(err, check.ErrInvalidModel) {
				t.Fatalf("error %v does not match ErrInvalidModel", err)
			}
		})
	}
}

func TestPriceMatchesBuild(t *testing.T) {
	// The planner's state count must equal what the builder
	// enumerates — Solve cross-checks this invariant internally, so a
	// successful solve in both modes is the assertion. The distributed
	// cluster's exchangeable disks make its chain lumped, which the
	// planner must price from the same orbit count.
	dist, err := cluster.Distributed(3, workload.Default(30), cluster.Dists{Remote: cluster.WithCV2(4)})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Net: testNet(), K: 3, JobTasks: 2, Jobs: 3, Arrival: phase.MustHyperExpFit(1, 4)},
		{Net: testNet(), K: 3, JobTasks: 2, Customers: 3, Think: phase.MustErlangMean(3, 1)},
		{Net: dist, K: 3, JobTasks: 4, Jobs: 3, Arrival: phase.MustExpoMean(20)},
		{Net: dist, K: 3, JobTasks: 2, Customers: 2, Think: phase.MustErlangMean(2, 20)},
	} {
		states, price, err := Price(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if states < 1 || price < states {
			t.Fatalf("implausible plan: states=%d price=%d", states, price)
		}
		res, err := Solve(context.Background(), cfg, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if int64(res.States) != states || res.Price != price {
			t.Fatalf("planner says (%d, %d), solver says (%d, %d)", states, price, res.States, res.Price)
		}
	}
}

func TestPriceGuard(t *testing.T) {
	cfg := Config{
		Net: testNet(), K: 8, JobTasks: 4, Jobs: 64,
		Arrival: phase.MustExpoMean(1), MaxStates: 100,
	}
	_, _, err := Price(cfg)
	if err == nil {
		t.Fatal("oversized config passed the price guard")
	}
	if !errors.Is(err, check.ErrInvalidModel) {
		t.Fatalf("error %v does not match ErrInvalidModel", err)
	}
	if _, err := Solve(context.Background(), cfg, nil); err == nil {
		t.Fatal("Solve accepted a config the price guard rejects")
	}
}

// A single-job stream is exactly the paper's one finite workload: the
// open-mode drain time must reproduce ctmc.MeanAbsorptionTime to
// round-off, though the two solvers share only the level matrices.
func TestOpenSingleJobMatchesCTMC(t *testing.T) {
	net := testNet()
	const tasks, cap = 5, 3
	cfg := Config{Net: net, K: cap, JobTasks: tasks, Jobs: 1, Arrival: phase.MustExpoMean(1)}
	res, err := Solve(context.Background(), cfg, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := network.NewChain(net, cap)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ctmc.Build(chain, tasks)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MeanAbsorptionTime()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.MeanDrain-want) / want; rel > 1e-9 {
		t.Fatalf("stream drain %v vs ctmc %v (rel %v)", res.MeanDrain, want, rel)
	}
	wantCDF, err := ref.CompletionCDF(2)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(res.DrainCDF[0] - wantCDF); diff > 1e-9 {
		t.Fatalf("stream CDF %v vs ctmc %v", res.DrainCDF[0], wantCDF)
	}
}

func TestOpenProbeLimits(t *testing.T) {
	cfg := Config{Net: testNet(), K: 3, JobTasks: 2, Jobs: 2, Arrival: phase.MustExpoMean(0.5)}
	res, err := Solve(context.Background(), cfg, []float64{0, 1e3})
	if err != nil {
		t.Fatal(err)
	}
	// At t = 0 job 1 has just arrived: E[J(0)] = JobTasks exactly.
	if math.Abs(res.MeanTasks[0]-2) > 1e-12 {
		t.Fatalf("E[J(0)] = %v, want 2", res.MeanTasks[0])
	}
	if res.DrainCDF[0] != 0 {
		t.Fatalf("drain CDF at 0 = %v, want 0", res.DrainCDF[0])
	}
	// Far past the drain the system is empty and the CDF saturated.
	if res.MeanTasks[1] > 1e-9 || res.DrainCDF[1] < 1-1e-9 {
		t.Fatalf("late probe: tasks=%v cdf=%v", res.MeanTasks[1], res.DrainCDF[1])
	}
	if res.MeanDrain <= 0 || math.IsNaN(res.MeanDrain) {
		t.Fatalf("mean drain %v", res.MeanDrain)
	}
}

func TestClosedProbeLimits(t *testing.T) {
	cfg := Config{Net: testNet(), K: 2, JobTasks: 2, Customers: 2, Think: phase.MustErlangMean(2, 1.5)}
	res, err := Solve(context.Background(), cfg, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeClosed {
		t.Fatalf("mode %q", res.Mode)
	}
	// At t = 0 everyone is thinking.
	if math.Abs(res.MeanTasks[0]) > 1e-12 {
		t.Fatalf("E[J(0)] = %v, want 0", res.MeanTasks[0])
	}
	if res.MeanTasks[1] <= 0 || res.MeanTasks[1] > 4 {
		t.Fatalf("E[J(4)] = %v outside (0, JB]", res.MeanTasks[1])
	}
	if res.DrainCDF != nil {
		t.Fatal("closed mode reported a drain CDF")
	}
}

func TestSolveCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Net: testNet(), K: 3, JobTasks: 2, Jobs: 3, Arrival: phase.MustExpoMean(1)}
	_, err := Solve(ctx, cfg, []float64{1})
	if !errors.Is(err, check.ErrCanceled) {
		t.Fatalf("error %v does not match ErrCanceled", err)
	}
}
