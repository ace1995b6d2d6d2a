package network_test

import (
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
