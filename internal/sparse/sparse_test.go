package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"finwl/internal/matrix"
)

func randomDense(r *rand.Rand, rows, cols int, density float64) *matrix.Matrix {
	d := matrix.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				d.Set(i, j, r.NormFloat64())
			}
		}
	}
	return d
}

func TestBuilderAndAt(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Add(0, 1, 2)
	b.Add(2, 3, 5)
	b.Add(0, 1, 3) // duplicate accumulates
	b.Add(1, 0, 0) // explicit zero dropped
	m := b.Build()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	if m.At(0, 1) != 5 {
		t.Fatalf("At(0,1) = %v, want 5", m.At(0, 1))
	}
	if m.At(2, 3) != 5 || m.At(1, 1) != 0 {
		t.Fatal("wrong values")
	}
}

func TestBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Add did not panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestRoundTripDense(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := randomDense(r, 7, 5, 0.3)
	if got := FromDense(d).Dense(); !got.EqualTol(d, 0) {
		t.Fatal("FromDense/Dense round trip failed")
	}
}

// Property: CSR MulVec / VecMul match the dense implementations.
func TestMulMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		d := randomDense(r, rows, cols, 0.4)
		m := FromDense(d)
		x := make([]float64, cols)
		y := make([]float64, rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range y {
			y[i] = r.NormFloat64()
		}
		return matrix.VecMaxAbsDiff(m.MulVec(x), d.MulVec(x)) < 1e-12 &&
			matrix.VecMaxAbsDiff(m.VecMul(y), d.VecMul(y)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeAndSums(t *testing.T) {
	d := matrix.FromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	m := FromDense(d)
	if got := m.Transpose().Dense(); !got.EqualTol(d.Transpose(), 0) {
		t.Fatal("transpose mismatch")
	}
	sums := m.RowSums()
	if sums[0] != 3 || sums[1] != 3 {
		t.Fatalf("RowSums = %v", sums)
	}
}

// substochasticP builds a random substochastic matrix with spectral
// radius < 1 (row sums ≤ 0.97).
func substochasticP(r *rand.Rand, n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		weights := make([]float64, n)
		var sum float64
		for j := range weights {
			if r.Float64() < 0.5 {
				weights[j] = r.Float64()
				sum += weights[j]
			}
		}
		if sum == 0 {
			continue
		}
		scale := (0.5 + 0.45*r.Float64()) / sum
		for j, w := range weights {
			if w > 0 {
				b.Add(i, j, w*scale)
			}
		}
	}
	return b.Build()
}
