package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"finwl/internal/cluster"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/statespace"
	"finwl/internal/workload"
)

// bitsHash folds the exact float64 bit patterns of xs into one FNV-64a
// hash, so a golden pin fails on any change in the last bit.
type bitsHash struct{ buf []byte }

func (b *bitsHash) add(xs ...float64) {
	for _, x := range xs {
		b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(x))
	}
}

func (b *bitsHash) sum() string {
	h := fnv.New64a()
	h.Write(b.buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenSeeds is the seed grid every pinned scenario runs over.
var goldenSeeds = []int64{1, 2, 3, 7, 42, 1001}

// multiServerNet is a delay station feeding a two-server pool.
func multiServerNet() *network.Network {
	route := matrix.New(2, 2)
	route.Set(0, 1, 0.5)
	route.Set(1, 0, 1)
	return &network.Network{
		Stations: []network.Station{
			{Name: "think", Kind: statespace.Delay, Service: phase.MustExpo(1.5)},
			{Name: "pool", Kind: statespace.Multi, Service: phase.MustExpo(0.8), Servers: 2},
		},
		Route: route,
		Exit:  []float64{0.5, 0},
		Entry: []float64{1, 0},
	}
}

// streamNet is a queue and a delay station in a loop.
func streamNet() *network.Network {
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

// The golden pins record the bits every seeded simulation produced
// when they were written. Seeded results are a function of the seed
// alone, so any change to the order of the RNG draws, the event
// tie-break or the replication reducers changes a hash here; such a
// change must be deliberate, with the pins re-recorded.
func TestGoldenRunDepartures(t *testing.T) {
	app := workload.Default(12)
	central := func(d cluster.Dists) *network.Network {
		net, err := cluster.Central(3, app, d, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	distributed, err := cluster.Distributed(3, app, cluster.Dists{})
	if err != nil {
		t.Fatal(err)
	}
	pareto := func(r *rand.Rand) float64 { return 0.4 / math.Sqrt(1-r.Float64()) }
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"central-exp", Config{Net: central(cluster.Dists{}), K: 3, N: 12}, "ee9c1bcad8a56e45"},
		{"central-h2", Config{Net: central(cluster.Dists{Remote: cluster.WithCV2(10)}), K: 3, N: 12}, "88dcc965ce97f265"},
		{"distributed", Config{Net: distributed, K: 3, N: 12}, "16e5f575d0fefc02"},
		{"multi-server", Config{Net: multiServerNet(), K: 4, N: 10}, "c502079cbf8a98a9"},
		{"samplers", Config{Net: central(cluster.Dists{}), K: 3, N: 12,
			Samplers: []func(*rand.Rand) float64{nil, pareto}}, "fb25ff300eebaec7"},
	}
	for _, c := range cases {
		var h bitsHash
		for _, seed := range goldenSeeds {
			cfg := c.cfg
			cfg.Seed = seed
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			h.add(res.Departures...)
			h.add(res.Total)
		}
		if got := h.sum(); got != c.want {
			t.Errorf("%s: departures hash %s, pinned %s", c.name, got, c.want)
		}
	}
}

func TestGoldenReplicate(t *testing.T) {
	app := workload.Default(10)
	net, err := cluster.Central(3, app, cluster.Dists{Remote: cluster.WithCV2(10)}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var h bitsHash
	for _, seed := range goldenSeeds {
		rep, err := Replicate(Config{Net: net, K: 3, N: 10, Seed: seed}, 24)
		if err != nil {
			t.Fatal(err)
		}
		h.add(rep.MeanTotal, rep.TotalCI95, rep.TotalQuantile(0.9))
		h.add(rep.MeanEpochs...)
		h.add(rep.MeanDeps...)
		h.add(rep.Totals...)
	}
	if got, want := h.sum(), "a453480402c34179"; got != want {
		t.Errorf("Replicate hash %s, pinned %s", got, want)
	}
}

func TestGoldenStream(t *testing.T) {
	probes := []float64{0.5, 1.5, 3, 6, 12}
	cases := []struct {
		cv2            float64
		open, closed   string // pinned RunStream hashes
		openR, closedR string // pinned ReplicateStream hashes
	}{
		{0.25, "c0fd3348b11708c7", "fbf0512491103cd0", "4a66566e8ab0d236", "f61aa1105a6bc284"},
		{1, "6525d230dfdd39a8", "28d91a3dfc385280", "5f53562c815bf2d3", "21250ff27c8e0e84"},
		{4, "99dab53a7fe63004", "aaed662d845030e4", "d88f8996e1e39076", "b54d3a88cbfd0087"},
	}
	for _, c := range cases {
		ph := phase.MustFitCV2(1.2, c.cv2)
		for _, mode := range []struct {
			name     string
			cfg      StreamConfig
			run, rep string
		}{
			{"open", StreamConfig{Jobs: 3, Arrival: ph}, c.open, c.openR},
			{"closed", StreamConfig{Customers: 3, Think: ph}, c.closed, c.closedR},
		} {
			cfg := mode.cfg
			cfg.Net, cfg.K, cfg.JobTasks, cfg.Probes = streamNet(), 3, 2, probes
			var run, rep bitsHash
			for _, seed := range goldenSeeds {
				cfg.Seed = seed
				res, err := RunStream(cfg)
				if err != nil {
					t.Fatal(err)
				}
				run.add(res.TasksAt...)
				run.add(res.Drain)
				agg, err := ReplicateStream(cfg, 16)
				if err != nil {
					t.Fatal(err)
				}
				rep.add(agg.MeanTasks...)
				rep.add(agg.TasksSE...)
				rep.add(agg.MeanDrain, agg.DrainSE)
				rep.add(agg.Drains...)
			}
			if got := run.sum(); got != mode.run {
				t.Errorf("cv2 %v %s: RunStream hash %s, pinned %s", c.cv2, mode.name, got, mode.run)
			}
			if got := rep.sum(); got != mode.rep {
				t.Errorf("cv2 %v %s: ReplicateStream hash %s, pinned %s", c.cv2, mode.name, got, mode.rep)
			}
		}
	}
}
