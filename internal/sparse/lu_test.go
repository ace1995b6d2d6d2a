package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"finwl/internal/matrix"
)

// Property: the no-pivot sparse LU agrees with the pivoted dense
// factorization on right solves, left solves, and in-place variants
// for random substochastic systems.
func TestLUMatchesDenseFactor(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		p := substochasticP(r, n)
		f, err := FactorIMinusP(p)
		if err != nil {
			// Budget rejection is legitimate; singularity on a
			// substochastic system with row sums ≤ 0.97 is not.
			return errors.Is(err, ErrFill)
		}
		dense, err := matrix.Factor(p.IMinusDense())
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, xd := f.Solve(b), dense.Solve(b)
		y, yd := f.SolveLeft(b), dense.SolveLeft(b)
		scale := math.Max(1, matrix.NormInf(b))
		if matrix.NormInf(matrix.VecSub(x, xd)) > 1e-9*scale {
			return false
		}
		if matrix.NormInf(matrix.VecSub(y, yd)) > 1e-9*scale {
			return false
		}
		// In-place aliasing: dst == b must give the same answers.
		bx := append([]float64(nil), b...)
		f.SolveInto(bx, bx)
		if matrix.NormInf(matrix.VecSub(bx, x)) != 0 {
			return false
		}
		by := append([]float64(nil), b...)
		f.SolveLeftInto(by, by)
		return matrix.NormInf(matrix.VecSub(by, y)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Cond1Est is exact for this factorization, not an estimate: on a
// diagonal substochastic P it must reproduce κ₁ = ‖A‖₁·‖A⁻¹‖₁ =
// max(1−p_i)·max(1/(1−p_j)) to the last bit, and in general it can
// never fall below the dense Hager estimate of the same matrix.
func TestLUCond1Exact(t *testing.T) {
	ps := []float64{0.9, 0.5, 0.0, 0.25}
	b := NewBuilder(len(ps), len(ps))
	for i, p := range ps {
		if p != 0 {
			b.Add(i, i, p)
		}
	}
	f, err := FactorIMinusP(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	// ‖A‖₁ = 1−0 = 1 (the empty diagonal), ‖A⁻¹‖₁ = 1/(1−0.9); computed
	// through the slice so the comparison uses runtime float arithmetic,
	// not Go's exact constant folding.
	want := 1 / (1 - ps[0])
	if got := f.Cond1Est(); got != want {
		t.Fatalf("Cond1Est = %v, want exactly %v", got, want)
	}

	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := substochasticP(r, 2+r.Intn(30))
		f, err := FactorIMinusP(p)
		if err != nil {
			continue
		}
		dense, err := matrix.Factor(p.IMinusDense())
		if err != nil {
			t.Fatal(err)
		}
		exact, est := f.Cond1Est(), dense.Cond1Est()
		if exact < est*(1-1e-9) {
			t.Fatalf("trial %d: exact κ₁ %v below the Hager estimate %v", trial, exact, est)
		}
	}
}

// The stability domain is enforced: negative entries, NaN, and row
// sums above one are all rejected with ErrNotSubstochastic before any
// elimination happens.
func TestLURejectsNonSubstochastic(t *testing.T) {
	cases := map[string]func(b *Builder){
		"negative": func(b *Builder) { b.Add(0, 1, -0.1) },
		"nan":      func(b *Builder) { b.Add(0, 1, math.NaN()) },
		"rowsum":   func(b *Builder) { b.Add(0, 0, 0.7); b.Add(0, 1, 0.7) },
	}
	for name, fill := range cases {
		b := NewBuilder(2, 2)
		fill(b)
		if _, err := FactorIMinusP(b.Build()); !errors.Is(err, ErrNotSubstochastic) {
			t.Errorf("%s: err = %v, want ErrNotSubstochastic", name, err)
		}
	}
	if _, err := FactorIMinusP(NewBuilder(2, 3).Build()); err == nil {
		t.Error("non-square matrix accepted")
	}
}

// A stochastic P (row sums exactly one — tasks never depart) makes
// I − P singular; the factorization must report matrix.ErrSingular so
// the caller's typed-error contract survives the sparse path.
func TestLUSingular(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	if _, err := FactorIMinusP(b.Build()); !errors.Is(err, matrix.ErrSingular) {
		t.Fatalf("err = %v, want matrix.ErrSingular", err)
	}
}

// A sparse matrix whose elimination densifies past the budget resigns
// with ErrFill instead of grinding through a dense-sized factorization
// (the caller falls back to the blocked dense LU, which wins there).
// The budget is judged on the symbolic fill of the chosen order: the
// first matrix densifies past it in natural order but not under
// minimum degree, the second under both.
func TestLUFillBudget(t *testing.T) {
	randomP := func(n, perRow int) *CSR {
		r := rand.New(rand.NewSource(1))
		b := NewBuilder(n, n)
		for i := 0; i < n; i++ {
			for c := 0; c < perRow; c++ {
				b.Add(i, r.Intn(n), 0.8/float64(perRow))
			}
		}
		return b.Build()
	}
	p := randomP(200, 4)
	nat, err := analyze(&p.Pattern, orderNatural)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nat.Factor(p); !errors.Is(err, ErrFill) {
		t.Fatalf("natural order: err = %v, want ErrFill", err)
	}
	f, err := FactorIMinusP(p)
	if err != nil {
		t.Fatalf("minimum-degree order: %v", err)
	}
	if f.sym.natural() {
		t.Fatal("analysis kept natural order although it overflows the budget")
	}
	b := make([]float64, p.Rows())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	dense, err := matrix.Factor(p.IMinusDense())
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.NormInf(matrix.VecSub(f.Solve(b), dense.Solve(b))); d > 1e-9 {
		t.Fatalf("minimum-degree solve differs from dense by %g", d)
	}
	if _, err := FactorIMinusP(randomP(400, 6)); !errors.Is(err, ErrFill) {
		t.Fatalf("err = %v, want ErrFill", err)
	}
}

// Solves are allocation-free in their Into forms — the contract the
// per-epoch kernels rely on.
func TestLUSolveIntoAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := substochasticP(r, 25)
	f, err := FactorIMinusP(p)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 25)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	dst := make([]float64, 25)
	if avg := testing.AllocsPerRun(50, func() {
		f.SolveInto(dst, b)
		f.SolveLeftInto(dst, b)
	}); avg != 0 {
		t.Fatalf("SolveInto/SolveLeftInto allocate %v objects per call, want 0", avg)
	}
}
