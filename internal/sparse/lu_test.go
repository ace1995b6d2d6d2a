package sparse

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"finwl/internal/check"
	"finwl/internal/matrix"
)

// denseGap returns how far the sparse LU's right and left solves of
// A = I − P lie from the pivoted dense LU's (the larger ∞-norm
// difference, absolute; each caller picks its scale), and checks that
// the in-place forms give the same answers bit for bit.
func denseGap(t *testing.T, f *LU, p *CSR, b []float64) float64 {
	t.Helper()
	dense, err := matrix.Factor(p.IMinusDense())
	if err != nil {
		t.Fatal(err)
	}
	x, y := f.Solve(b), f.SolveLeft(b)
	gap := math.Max(
		matrix.NormInf(matrix.VecSub(x, dense.Solve(b))),
		matrix.NormInf(matrix.VecSub(y, dense.SolveLeft(b))))
	bx := append([]float64(nil), b...)
	f.SolveInto(bx, bx)
	by := append([]float64(nil), b...)
	f.SolveLeftInto(by, by)
	if !slices.Equal(bx, x) || !slices.Equal(by, y) {
		t.Fatal("in-place solves differ from the allocating ones")
	}
	return gap
}

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
			// Singularity on a substochastic system with row sums
			// ≤ 0.95 is not legitimate.
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		return denseGap(t, f, p, b) <= 1e-9*math.Max(1, matrix.NormInf(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The sparse LU factors every level, tiny (d < 16) and quarter-dense
// (4·nnz > d²) ones included: through the production path (Analyze,
// then Factor) it matches the pivoted dense LU to 1e-12·max(1, ‖b‖∞)
// at those sizes.
func TestLUMatchesDenseAtSmallAndDenseSizes(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var ps []*CSR
	for d := 1; d <= 15; d++ {
		ps = append(ps, substochasticP(r, d))
	}
	for _, d := range []int{16, 20, 33, 64, 100} {
		p := substochasticP(r, d) // about half the entries set
		if 4*p.NNZ() <= d*d {
			t.Fatalf("d=%d: pattern with %d entries is not quarter-dense", d, p.NNZ())
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		sym, err := Analyze(&p.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		f, err := sym.Factor(p)
		if err != nil {
			t.Fatalf("d=%d: %v", p.Rows(), err)
		}
		b := make([]float64, p.Rows())
		for i := range b {
			b[i] = r.NormFloat64()
		}
		if gap := denseGap(t, f, p, b); gap > 1e-12*math.Max(1, matrix.NormInf(b)) {
			t.Fatalf("d=%d (nnz %d): sparse and dense solves differ by %g", p.Rows(), p.NNZ(), gap)
		}
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
// sums above one are all rejected with ErrNotSubstochastic, which is a
// check.ErrInvalidModel, before any elimination happens.
func TestLURejectsNonSubstochastic(t *testing.T) {
	cases := map[string]func(b *Builder){
		"negative": func(b *Builder) { b.Add(0, 1, -0.1) },
		"nan":      func(b *Builder) { b.Add(0, 1, math.NaN()) },
		"rowsum":   func(b *Builder) { b.Add(0, 0, 0.7); b.Add(0, 1, 0.7) },
	}
	for name, fill := range cases {
		b := NewBuilder(2, 2)
		fill(b)
		_, err := FactorIMinusP(b.Build())
		if !errors.Is(err, ErrNotSubstochastic) || !errors.Is(err, check.ErrInvalidModel) {
			t.Errorf("%s: err = %v, want ErrNotSubstochastic matching check.ErrInvalidModel", name, err)
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

// A nearly stochastic P leaves A = I − P nonsingular but with κ₁
// beyond matrix.CondLimit: Factor refuses it with a *CondError that
// carries κ₁ and matches check.ErrSingular, the gate the dense LU
// applied to the same matrix.
func TestLUConditionGate(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1-1e-16)
	_, err := FactorIMinusP(b.Build())
	var ce *CondError
	if !errors.As(err, &ce) || !errors.Is(err, check.ErrSingular) {
		t.Fatalf("err = %v, want a *CondError matching check.ErrSingular", err)
	}
	if !(ce.Cond > matrix.CondLimit) {
		t.Fatalf("CondError carries κ₁ = %v, want above %v", ce.Cond, matrix.CondLimit)
	}
}

// Elimination that densifies heavily still factors sparse: the first
// matrix fills far more in natural order than under minimum degree, so
// the analysis keeps minimum degree; the second fills heavily under
// both. Both solve as the dense LU does.
func TestLUHeavyFill(t *testing.T) {
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
	for _, p := range []*CSR{randomP(200, 4), randomP(400, 6)} {
		f, err := FactorIMinusP(p)
		if err != nil {
			t.Fatalf("n=%d: %v", p.Rows(), err)
		}
		nat := symbolic(&p.Pattern, nil, math.MaxInt)
		if f.sym.natural() || f.sym.NNZ() >= nat.NNZ() {
			t.Fatalf("n=%d: analysis kept %d entries (natural %v), natural order has %d",
				p.Rows(), f.sym.NNZ(), f.sym.natural(), nat.NNZ())
		}
		b := make([]float64, p.Rows())
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		if gap := denseGap(t, f, p, b); gap > 1e-9 {
			t.Fatalf("n=%d: minimum-degree solve differs from dense by %g", p.Rows(), gap)
		}
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
