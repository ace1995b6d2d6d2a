package sparse

import (
	"math/rand"
	"testing"
)

func benchP(n int, nnzPerRow int) *CSR {
	r := rand.New(rand.NewSource(5))
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		total := 0.95
		for k := 0; k < nnzPerRow; k++ {
			b.Add(i, r.Intn(n), total/float64(nnzPerRow))
		}
	}
	return b.Build()
}

func BenchmarkVecMul5000(b *testing.B) {
	p := benchP(5000, 20)
	x := make([]float64, 5000)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.VecMul(x)
	}
}

func BenchmarkBuild100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = benchP(5000, 20)
	}
}
