package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"finwl/internal/matrix"
)

// scanLU is the factorization FactorIMinusP ran before the symbolic and
// numeric phases were split: the up-looking elimination that discovers
// the pattern by scanning a dense accumulator, in natural order. It is
// the reference the natural-order refactorization must reproduce bit
// for bit. Returned dense, with absent entries as 0.
func scanLU(p *CSR) (l, u *matrix.Matrix, err error) {
	n := p.rows
	l, u = matrix.New(n, n), matrix.New(n, n)
	ud := make([]float64, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = 1
		for q := p.rowPtr[i]; q < p.rowPtr[i+1]; q++ {
			w[p.colIdx[q]] -= p.vals[q]
		}
		for k := 0; k < i; k++ {
			piv := w[k]
			if piv == 0 {
				continue
			}
			m := piv / ud[k]
			w[k] = 0
			l.Set(i, k, m)
			for j := k + 1; j < n; j++ {
				if ukj := u.At(k, j); ukj != 0 {
					w[j] -= m * ukj
				}
			}
		}
		if ud[i] = w[i]; ud[i] == 0 {
			return nil, nil, matrix.ErrSingular
		}
		u.Set(i, i, ud[i])
		w[i] = 0
		for j := i + 1; j < n; j++ {
			if w[j] != 0 {
				u.Set(i, j, w[j])
				w[j] = 0
			}
		}
	}
	return l, u, nil
}

// natural reports whether the elimination runs in natural order.
func (f *Symbolic) natural() bool {
	for s, i := range f.perm {
		if int(i) != s {
			return false
		}
	}
	return true
}

// dense expands a factorization to L and U in the elimination order's
// numbering (step s is row/column s).
func (f *LU) dense() (l, u *matrix.Matrix) {
	n, sym := f.N(), f.sym
	l, u = matrix.New(n, n), matrix.New(n, n)
	for s := 0; s < n; s++ {
		for q := sym.lp[s]; q < sym.lp[s+1]; q++ {
			l.Set(s, int(sym.iperm[sym.li[q]]), f.lx[q])
		}
		u.Set(s, s, f.ud[s])
		for q := sym.up[s]; q < sym.up[s+1]; q++ {
			u.Set(s, int(sym.iperm[sym.ui[q]]), f.ux[q])
		}
	}
	return l, u
}

// sameBits compares two matrices entry by entry with ==, so an explicit
// zero of the known pattern matches an absent entry (either sign).
func sameBits(a, b *matrix.Matrix) bool {
	for i := 0; i < a.Rows(); i++ {
		if !slices.Equal(a.RawRow(i), b.RawRow(i)) {
			return false
		}
	}
	return true
}

// gridP is the 5-point Laplacian pattern on a side×side grid, scaled
// substochastic: the classic case where natural order fills heavily
// and minimum degree does not.
func gridP(side int) *CSR {
	n := side * side
	b := NewBuilder(n, n)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			v := i*side + j
			for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				if x, y := i+d[0], j+d[1]; x >= 0 && x < side && y >= 0 && y < side {
					b.Add(v, x*side+y, 0.24)
				}
			}
		}
	}
	return b.Build()
}

// With the natural order forced, refactoring into the known pattern
// gives factors bitwise identical to the scan-and-append elimination
// it replaced.
func TestNaturalRefactorMatchesScanLU(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ps := []*CSR{gridP(6), gridP(9)}
	for i := 0; i < 30; i++ {
		ps = append(ps, substochasticP(r, 2+r.Intn(60)))
	}
	for i, p := range ps {
		f, err := symbolic(&p.Pattern, nil, math.MaxInt).Factor(p)
		if err != nil {
			t.Fatalf("matrix %d: %v", i, err)
		}
		wantL, wantU, err := scanLU(p)
		if err != nil {
			t.Fatal(err)
		}
		gotL, gotU := f.dense()
		if !sameBits(gotL, wantL) || !sameBits(gotU, wantU) {
			t.Fatalf("matrix %d: natural-order refactorization differs from the scan LU", i)
		}
	}
}

// structuralLU is the pattern of L+U of Π·A·Πᵀ by boolean elimination on
// a dense mask: the definition the symbolic factorization must match.
func structuralLU(pat *Pattern, perm []int32) [][]bool {
	n := pat.rows
	iperm := make([]int32, n)
	for s, i := range perm {
		iperm[i] = int32(s)
	}
	m := make([][]bool, n)
	for s := range m {
		m[s] = make([]bool, n)
		i := perm[s]
		for q := pat.rowPtr[i]; q < pat.rowPtr[i+1]; q++ {
			m[s][iperm[pat.colIdx[q]]] = true
		}
		m[s][s] = false
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if !m[i][k] {
				continue
			}
			for j := k + 1; j < n; j++ {
				if m[k][j] && j != i {
					m[i][j] = true
				}
			}
		}
	}
	return m
}

// The bitset symbolic factorization finds exactly the structural L and
// U patterns, in ascending step order, under natural and minimum-degree
// orders alike.
func TestSymbolicMatchesStructuralElimination(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(150)
		b := NewBuilder(n, n)
		for e := r.Intn(4 * n); e > 0; e-- {
			b.Add(r.Intn(n), r.Intn(n), 0.1)
		}
		pat := &b.Build().Pattern
		for _, perm := range [][]int32{nil, amdOrder(pat)} {
			f := symbolic(pat, perm, 1<<30)
			want := structuralLU(pat, f.perm)
			got := make([][]bool, n)
			for s := range got {
				got[s] = make([]bool, n)
				prev := int32(-1)
				for _, rowIdx := range [][]int32{f.li[f.lp[s]:f.lp[s+1]], f.ui[f.up[s]:f.up[s+1]]} {
					for _, c := range rowIdx {
						step := f.iperm[c]
						if step <= prev {
							t.Fatalf("trial %d: row %d not in ascending step order", trial, s)
						}
						prev = step
						got[s][step] = true
					}
				}
			}
			for s := range want {
				if !slices.Equal(got[s], want[s]) {
					t.Fatalf("trial %d (n=%d): symbolic row %d differs from structural elimination", trial, n, s)
				}
			}
		}
	}
}

// The minimum-degree order is a permutation, reproducible across runs
// and processor counts, and on a grid it cuts the fill natural order
// leaves, so the analysis adopts it.
func TestAMDOrderDeterministic(t *testing.T) {
	p := gridP(12)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []int32
	for _, procs := range []int{1, 4, 1, 4} {
		runtime.GOMAXPROCS(procs)
		perm := amdOrder(&p.Pattern)
		if first == nil {
			first = perm
			seen := make([]bool, len(perm))
			for _, i := range perm {
				if seen[i] {
					t.Fatalf("order repeats %d", i)
				}
				seen[i] = true
			}
			continue
		}
		if !slices.Equal(perm, first) {
			t.Fatalf("GOMAXPROCS=%d: order differs between runs", procs)
		}
	}
	sym, err := Analyze(&p.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	nat := symbolic(&p.Pattern, nil, 1<<30)
	if sym.natural() || sym.NNZ() >= nat.NNZ() {
		t.Fatalf("analysis kept %d entries (natural %v), natural order has %d", sym.NNZ(), sym.natural(), nat.NNZ())
	}
}

// A tridiagonal P has no fill in natural order; the analysis keeps it.
func TestAnalyzeKeepsNaturalWithoutFill(t *testing.T) {
	const n = 40
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.Add(i, i-1, 0.3)
		}
		if i < n-1 {
			b.Add(i, i+1, 0.3)
		}
	}
	sym, err := Analyze(&b.Build().Pattern)
	if err != nil {
		t.Fatal(err)
	}
	if !sym.natural() || sym.NNZ() != 3*n-2 {
		t.Fatalf("natural = %v, nnz(L+U) = %d, want natural with %d", sym.natural(), sym.NNZ(), 3*n-2)
	}
}

// One analysis serves every matrix of its pattern: refactoring new
// values gives exactly what a fresh FactorIMinusP gives, solves agree
// with the dense LU, and a matrix of another pattern is refused.
func TestSymbolicRefactor(t *testing.T) {
	base := gridP(10)
	sym, err := Analyze(&base.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	if sym.natural() {
		t.Fatal("grid analysis kept natural order")
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		vals := make([]float64, base.NNZ())
		for i := range vals {
			vals[i] = 0.05 + 0.19*r.Float64()
		}
		p := base.WithValues(vals)
		got, err := sym.Factor(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FactorIMinusP(p)
		if err != nil {
			t.Fatal(err)
		}
		gl, gu := got.dense()
		wl, wu := want.dense()
		if !sameBits(gl, wl) || !sameBits(gu, wu) {
			t.Fatalf("trial %d: refactorization differs from a fresh factorization", trial)
		}
		dense, err := matrix.Factor(p.IMinusDense())
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, p.Rows())
		for i := range b {
			b[i] = r.NormFloat64()
		}
		if d := matrix.NormInf(matrix.VecSub(got.Solve(b), dense.Solve(b))); d > 1e-12 {
			t.Fatalf("trial %d: right solve off by %g", trial, d)
		}
		if d := matrix.NormInf(matrix.VecSub(got.SolveLeft(b), dense.SolveLeft(b))); d > 1e-12 {
			t.Fatalf("trial %d: left solve off by %g", trial, d)
		}
		dst := make([]float64, p.Rows())
		if avg := testing.AllocsPerRun(20, func() {
			got.SolveInto(dst, b)
			got.SolveLeftInto(dst, dst)
		}); avg != 0 {
			t.Fatalf("permuted solves allocate %v objects per call, want 0", avg)
		}
	}
	if _, err := sym.Factor(gridP(9)); err == nil {
		t.Fatalf("factor of another pattern: err = %v, want a pattern mismatch", err)
	}
}

// The minimum-degree order is a permutation of every pattern, including
// ones with empty rows (eliminated first) and rows dense enough to be
// left out of the quotient graph (ordered last).
func TestAMDOrderPermutesEveryPattern(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(300)
		b := NewBuilder(n, n)
		for e := r.Intn(3 * n); e > 0; e-- {
			b.Add(r.Intn(n), r.Intn(n), 0.1)
		}
		denseRow := -1
		if n > 20 && trial%3 == 0 {
			denseRow = r.Intn(n)
			for j := 0; j < n; j++ {
				b.Add(denseRow, j, 0.5/float64(n))
			}
		}
		pat := &b.Build().Pattern
		perm := amdOrder(pat)
		if len(perm) != n {
			t.Fatalf("trial %d: order has %d entries, want %d", trial, len(perm), n)
		}
		seen := make([]bool, n)
		for _, i := range perm {
			if seen[i] {
				t.Fatalf("trial %d: order repeats %d", trial, i)
			}
			seen[i] = true
		}
		if denseRow >= 0 && n > 160 && perm[n-1] != int32(denseRow) {
			t.Fatalf("trial %d (n=%d): dense row %d ordered at %d, want last", trial, n, denseRow, slices.Index(perm, int32(denseRow)))
		}
	}
}
