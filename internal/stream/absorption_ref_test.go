package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"finwl/internal/cluster"
	"finwl/internal/matrix"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/workload"
)

// meanAbsorptionPerBlock is meanAbsorption as it was before diagonal
// blocks shared their factors: every block assembles and factors its
// own dense diagonal block. It is the reference the shared-factor
// solve must match bit for bit.
func (g *graph) meanAbsorptionPerBlock() (float64, error) {
	t := make([]float64, g.total)
	for bi := len(g.blocks) - 1; bi >= 0; bi-- {
		blk := g.blocks[bi]
		n := blk.n
		a := matrix.New(n, n)
		rhs := make([]float64, n)
		for x := 0; x < n; x++ {
			s := blk.offset + x
			row := a.RawRow(x)
			row[x] = g.exit[s]
			rhs[x] = 1
			for p := g.rowPtr[s]; p < g.rowPtr[s+1]; p++ {
				tgt := g.to[p]
				if tgt < 0 {
					continue
				}
				if tgt >= blk.offset && tgt < blk.offset+n {
					row[tgt-blk.offset] -= g.rate[p]
				} else {
					rhs[x] += g.rate[p] * t[tgt]
				}
			}
		}
		sol, err := matrix.Solve(a, rhs)
		if err != nil {
			return 0, err
		}
		copy(t[blk.offset:blk.offset+n], sol)
	}
	return matrix.Dot(g.init, t), nil
}

// The shared-factor drain solve reproduces the per-block reference's
// bits on 200 random open scenarios: the test network, the central
// and the (lumped) distributed cluster, K 1–4, 1–6 jobs of 1–5 tasks,
// exponential, Erlang and hyperexponential arrivals.
func TestMeanAbsorptionMatchesPerBlockReference(t *testing.T) {
	app := workload.Default(30)
	central, err := cluster.Central(4, app, cluster.Dists{Remote: cluster.WithCV2(4)}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := cluster.Distributed(3, app, cluster.Dists{Remote: cluster.WithCV2(10)})
	if err != nil {
		t.Fatal(err)
	}
	nets := []*network.Network{testNet(), central, dist}
	r := rand.New(rand.NewSource(26))
	for i := 0; i < 200; i++ {
		net := nets[i%len(nets)]
		mean := 0.5 + 30*r.Float64()
		laws := []*phase.PH{phase.MustExpoMean(mean), phase.MustErlangMean(2+r.Intn(3), mean), phase.MustHyperExpFit(mean, 2+8*r.Float64())}
		cfg := Config{Net: net, K: 1 + r.Intn(4), JobTasks: 1 + r.Intn(5), Jobs: 1 + r.Intn(6), Arrival: laws[r.Intn(len(laws))]}
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			chain, err := network.NewChain(cfg.Net, cfg.maxLevel())
			if err != nil {
				t.Fatal(err)
			}
			g := buildOpen(&cfg, chain)
			got, err := g.meanAbsorption(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, err := g.meanAbsorptionPerBlock()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v: mean drain %v, per-block reference %v", cfg, got, want)
			}
		})
	}
}
