package network_test

import (
	"fmt"
	"testing"

	"finwl/internal/cluster"
	"finwl/internal/core"
	"finwl/internal/network"
	"finwl/internal/workload"
)

// BenchmarkPerfNewSolverK8H2ShapeCold is the root
// BenchmarkPerfNewSolverK8H2 with the chain-shape memo emptied before
// every build: chain construction and factorization of a shape never
// seen before, symbolic phase (state enumeration, patterns, tapes, the
// minimum-degree analysis of every level) included. It prices what
// the first network of each shape pays.
func BenchmarkPerfNewSolverK8H2ShapeCold(b *testing.B) {
	net, err := cluster.Central(8, workload.Default(30), cluster.Dists{Remote: cluster.WithCV2(10)}, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		network.ResetShapeMemo()
		if _, err := core.NewSolver(net, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfNewSolverDistributedShapeCold builds and factors the
// paper's distributed cluster (CV² 10 disks) with the shape memo
// emptied first, at K=4 (the largest distributed class of perfbench's
// cold-distinct mix: 68 lumped states at level 4, 501 unlumped) and at
// K=6 (281 lumped, 14,407 unlumped).
func BenchmarkPerfNewSolverDistributedShapeCold(b *testing.B) {
	for _, k := range []int{4, 6} {
		net, err := cluster.Distributed(k, workload.Default(30), cluster.Dists{Remote: cluster.WithCV2(10)})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				network.ResetShapeMemo()
				if _, err := core.NewSolver(net, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
