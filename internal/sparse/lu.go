package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"finwl/internal/check"
	"finwl/internal/matrix"
)

// The level systems A_k = I − P_k are weakly row-diagonally-dominant
// M-matrices: P_k is substochastic (non-negative entries, row sums
// ≤ 1), so A_k has a unit-bounded diagonal and non-positive
// off-diagonals whose magnitudes the diagonal dominates. Gaussian
// elimination preserves that structure, which is what makes an LU
// without pivoting stable here — the property a dense LU buys with
// partial pivoting. A symmetric permutation Π·A·Πᵀ is again such an
// M-matrix, so a fill-reducing elimination order costs no stability.
// Factor checks the precondition explicitly and refuses anything else.

// ErrNotSubstochastic reports a matrix outside the factorization's
// stability domain (negative, non-finite, or row sums above one). It
// matches check.ErrInvalidModel: a valid network never assembles one.
var ErrNotSubstochastic = fmt.Errorf("sparse: matrix is not substochastic: %w", check.ErrInvalidModel)

// CondError reports a factorization refused because its condition
// number κ₁(A) exceeds matrix.CondLimit: the solves would carry no
// trustworthy digits. It matches check.ErrSingular.
type CondError struct {
	Cond float64 // κ₁(A), +Inf when the inverse overflowed
}

func (e *CondError) Error() string {
	return fmt.Sprintf("sparse: condition estimate %.3g exceeds limit %.3g", e.Cond, matrix.CondLimit)
}

func (e *CondError) Unwrap() error { return check.ErrSingular }

// Symbolic is the value-free half of a factorization of A = I − P:
// everything that depends only on P's sparsity pattern. It holds the
// elimination order and the patterns of L and U, so any number of
// matrices with that pattern refactor into it by arithmetic alone.
// A Symbolic is immutable and safe for concurrent use.
type Symbolic struct {
	pat Pattern // the analyzed pattern of P
	// perm is the elimination order: step s eliminates row and column
	// perm[s] of A; iperm inverts it. Natural order is the identity.
	perm, iperm []int32
	// L's strictly lower part and U's strictly upper part, one row per
	// elimination step. Column indices are A's own (unpermuted), listed
	// in ascending step order, so the solves run in place on vectors in
	// A's numbering.
	lp, li []int32
	up, ui []int32
	flops  int64 // multiply-adds of one numeric factorization
}

// Analyze computes the symbolic factorization of A = I − P for a
// square P. It orders the elimination by approximate minimum degree on
// the pattern of P + Pᵀ, and keeps that order only where its symbolic
// nnz(L+U) is smaller than natural order's (ties keep natural order,
// whose analysis stops as soon as it can no longer win). There is no
// fill budget: the worst case, a full d×d LU, is what admission
// prices a level at.
func Analyze(p *Pattern) (*Symbolic, error) {
	if p.cols != p.rows {
		return nil, fmt.Errorf("sparse: factorization requires a square matrix, got %dx%d", p.rows, p.cols)
	}
	amd := symbolic(p, amdOrder(p), math.MaxInt)
	if nat := symbolic(p, nil, amd.nnz()); nat != nil {
		return nat, nil
	}
	return amd, nil
}

// symbolic runs the up-looking elimination on the pattern of Π·A·Πᵀ
// (perm nil for natural order) with rows held as bitsets: row s starts
// from A's row perm[s], and eliminating each earlier step k it holds,
// in ascending order, ORs U's row k into it (which can only add steps
// after k). The bits left below s are L's row, those above U's, both
// read out in ascending order. Each finished U row is kept as the
// words from its first to its last set bit, so a merge costs one word
// operation per 64 columns of span. It gives up, returning nil, as
// soon as nnz(L+U) exceeds limit.
func symbolic(pat *Pattern, perm []int32, limit int) *Symbolic {
	n := pat.rows
	if perm == nil {
		perm = make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
	}
	// Pre-size each factor side near the fill of typical levels: growth
	// by doubling from nothing would copy each side a dozen times.
	est := min(4*pat.NNZ()+2*n, limit)
	f := &Symbolic{
		pat: *pat, perm: perm, iperm: make([]int32, n), lp: make([]int32, n+1), up: make([]int32, n+1),
		li: make([]int32, 0, est), ui: make([]int32, 0, est),
	}
	for s, i := range perm {
		f.iperm[i] = int32(s)
	}
	row := make([]uint64, (n+63)/64)
	// U's row k as bits: words ubits[off[k]:off[k+1]], the first of
	// which is word first[k] of a row.
	first := make([]int32, n)
	off := make([]int32, n+1)
	ubits := make([]uint64, 0, est/16+n)
	for s := 0; s < n; s++ {
		lo, hi := len(row), 0 // the words of row in use
		i := perm[s]
		for q := pat.rowPtr[i]; q < pat.rowPtr[i+1]; q++ {
			j := int(f.iperm[pat.colIdx[q]])
			row[j>>6] |= 1 << (j & 63)
			lo, hi = min(lo, j>>6), max(hi, j>>6+1)
		}
		sw := s >> 6
		row[sw] &^= 1 << (s & 63)
		// Eliminate the steps below s, lowest first.
		for k := lo << 6; lo <= sw; k++ {
			w := k >> 6
			b := row[w] & (^uint64(0) << (k & 63))
			for b == 0 && w < sw {
				w++
				b = row[w]
			}
			if k = w<<6 + bits.TrailingZeros64(b); b == 0 || k >= s {
				break
			}
			f.li = append(f.li, int32(k))
			f.flops += int64(f.up[k+1] - f.up[k])
			if u := ubits[off[k]:off[k+1]]; len(u) > 0 {
				w0 := int(first[k])
				for x, ub := range u {
					row[w0+x] |= ub
				}
				hi = max(hi, w0+len(u))
			}
		}
		// Read out U's row s, keep its bits, and clear the row.
		start := len(ubits)
		for w := max(lo, (s+1)>>6); w < hi; w++ {
			b := row[w]
			if w == sw {
				b &= ^uint64(0) << (s & 63) << 1
			}
			if len(ubits) == start {
				if b == 0 {
					continue
				}
				first[s] = int32(w)
			}
			ubits = append(ubits, b)
			for x := b; x != 0; x &= x - 1 {
				f.ui = append(f.ui, int32(w<<6+bits.TrailingZeros64(x)))
			}
		}
		for len(ubits) > start && ubits[len(ubits)-1] == 0 {
			ubits = ubits[:len(ubits)-1]
		}
		off[s+1] = int32(len(ubits))
		if lo < hi {
			clear(row[lo:hi])
		}
		f.lp[s+1] = int32(len(f.li))
		f.up[s+1] = int32(len(f.ui))
		if len(f.li)+len(f.ui) > limit {
			return nil
		}
	}
	// The elimination ran on step numbers; the stored patterns name A's
	// own columns so the solves need no permuted copy of their vector.
	for q, k := range f.li {
		f.li[q] = perm[k]
	}
	for q, j := range f.ui {
		f.ui[q] = perm[j]
	}
	return f
}

func (f *Symbolic) nnz() int { return len(f.li) + len(f.ui) }

// NNZ returns the structural entry count of L and U combined
// (including U's diagonal).
func (f *Symbolic) NNZ() int { return f.nnz() + f.pat.rows }

// Flops returns the multiply-add count of one numeric factorization
// into this analysis.
func (f *Symbolic) Flops() int64 { return f.flops }

// Bytes returns the memory held by the analysis (the analyzed pattern
// is shared with the matrix and not counted).
func (f *Symbolic) Bytes() int64 {
	return 4 * int64(len(f.perm)+len(f.iperm)+len(f.lp)+len(f.li)+len(f.up)+len(f.ui))
}

// samePattern reports whether p has exactly the analyzed structure.
// Matrices built over one shared Pattern match by identity; anything
// else is compared entry by entry.
func (f *Symbolic) samePattern(p *CSR) bool {
	a, b := &f.pat, &p.Pattern
	if a.rows != b.rows || a.cols != b.cols || len(a.colIdx) != len(b.colIdx) {
		return false
	}
	if len(a.colIdx) > 0 && &a.colIdx[0] == &b.colIdx[0] && &a.rowPtr[0] == &b.rowPtr[0] {
		return true
	}
	return slices.Equal(a.rowPtr, b.rowPtr) && slices.Equal(a.colIdx, b.colIdx)
}

// LU is a sparse LU factorization of A = I − P without pivoting, in
// the elimination order of its Symbolic: Π·A·Πᵀ = L·U with L unit
// lower triangular and U upper triangular, both stored by rows. Like
// the dense matrix.LU it serves right solves (A·x = b) and left solves
// (x·A = b) from one factorization, which is all the transient solver
// needs per level.
type LU struct {
	sym *Symbolic
	lx  []float64 // values of L's pattern
	ux  []float64 // values of U's strictly upper pattern
	ud  []float64 // U's diagonal, by step

	anorm float64 // ‖A‖₁, for Cond1Est
}

// FactorIMinusP factors A = I − P for a square substochastic CSR
// matrix P: Analyze followed by Factor.
func FactorIMinusP(p *CSR) (*LU, error) {
	f, err := Analyze(&p.Pattern)
	if err != nil {
		return nil, err
	}
	return f.Factor(p)
}

// Factor refactors A = I − P into the analyzed pattern: arithmetic
// only, over the known L and U structure. P must have exactly the
// analyzed pattern. It returns ErrNotSubstochastic when P is outside
// the no-pivot stability domain, matrix.ErrSingular on an exactly zero
// pivot, and a *CondError when κ₁(A) exceeds matrix.CondLimit.
func (f *Symbolic) Factor(p *CSR) (*LU, error) {
	if !f.samePattern(p) {
		return nil, fmt.Errorf("sparse: %dx%d matrix does not have the analyzed pattern", p.rows, p.cols)
	}
	n := p.rows
	// Validate the stability precondition and accumulate the column
	// absolute sums of A = I − P for the 1-norm in one pass.
	scratch := make([]float64, 2*n)
	colAbs, diag := scratch[:n], scratch[n:]
	for i := 0; i < n; i++ {
		var rowSum float64
		for q := p.rowPtr[i]; q < p.rowPtr[i+1]; q++ {
			v := p.vals[q]
			if !(v >= 0) { // negative or NaN
				return nil, ErrNotSubstochastic
			}
			rowSum += v
			if j := int(p.colIdx[q]); j == i {
				diag[i] = v
			} else {
				colAbs[j] += v
			}
		}
		if rowSum > 1+1e-9 {
			return nil, ErrNotSubstochastic
		}
	}
	var anorm float64
	for j := 0; j < n; j++ {
		if a := math.Abs(1-diag[j]) + colAbs[j]; a > anorm {
			anorm = a
		}
	}
	vals := make([]float64, len(f.li)+len(f.ui)+n)
	lu := &LU{
		sym:   f,
		anorm: anorm,
		lx:    vals[:len(f.li):len(f.li)],
		ux:    vals[len(f.li) : len(f.li)+len(f.ui) : len(f.li)+len(f.ui)],
		ud:    vals[len(f.li)+len(f.ui):],
	}
	// Row-wise (up-looking) elimination into the known pattern: row s of
	// Π·A·Πᵀ is scattered into w (indexed in A's numbering), the earlier
	// steps in its L pattern are applied in ascending order, and the U
	// pattern is gathered back out, re-zeroing w for the next row.
	w := colAbs
	clear(w)
	for s := 0; s < n; s++ {
		i := f.perm[s]
		w[i] = 1
		for q := p.rowPtr[i]; q < p.rowPtr[i+1]; q++ {
			w[p.colIdx[q]] -= p.vals[q]
		}
		for q := f.lp[s]; q < f.lp[s+1]; q++ {
			k := f.li[q]
			ks := f.iperm[k]
			m := w[k] / lu.ud[ks]
			w[k] = 0
			lu.lx[q] = m
			lo, hi := f.up[ks], f.up[ks+1]
			ui, ux := f.ui[lo:hi], lu.ux[lo:hi]
			for t, j := range ui {
				w[j] -= m * ux[t]
			}
		}
		uii := w[i]
		w[i] = 0
		if uii == 0 {
			return nil, matrix.ErrSingular
		}
		lu.ud[s] = uii
		for q := f.up[s]; q < f.up[s+1]; q++ {
			j := f.ui[q]
			lu.ux[q] = w[j]
			w[j] = 0
		}
	}
	if c := lu.Cond1Est(); !(c <= matrix.CondLimit) {
		return nil, &CondError{Cond: c}
	}
	return lu, nil
}

// N returns the dimension of the factored matrix.
func (f *LU) N() int { return len(f.ud) }

// NNZ returns the stored entry count of L and U combined (including
// U's diagonal).
func (f *LU) NNZ() int { return len(f.lx) + len(f.ux) + len(f.ud) }

// Solve solves A·x = b and returns x. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	return f.SolveInto(make([]float64, f.N()), b)
}

// SolveInto solves A·x = b into dst and returns dst. dst must have
// length N; it may alias b. It performs no allocations: the
// elimination order is applied by walking the steps through perm, so
// the vector never needs a permuted copy.
func (f *LU) SolveInto(dst, b []float64) []float64 {
	n := f.N()
	if len(b) != n {
		panic(fmt.Sprintf("sparse: Solve length %d, want %d", len(b), n))
	}
	if len(dst) != n {
		panic(fmt.Sprintf("sparse: SolveInto dst length %d, want %d", len(dst), n))
	}
	x := dst
	if &x[0] != &b[0] {
		copy(x, b)
	}
	sym := f.sym
	// Forward substitution with unit lower triangular L.
	for s := 0; s < n; s++ {
		i := sym.perm[s]
		sum := x[i]
		lo, hi := sym.lp[s], sym.lp[s+1]
		li, lx := sym.li[lo:hi], f.lx[lo:hi]
		for q, j := range li {
			sum -= lx[q] * x[j]
		}
		x[i] = sum
	}
	// Back substitution with U.
	for s := n - 1; s >= 0; s-- {
		i := sym.perm[s]
		sum := x[i]
		lo, hi := sym.up[s], sym.up[s+1]
		ui, ux := sym.ui[lo:hi], f.ux[lo:hi]
		for q, j := range ui {
			sum -= ux[q] * x[j]
		}
		x[i] = sum / f.ud[s]
	}
	return x
}

// SolveLeft solves x·A = b and returns x. b is not modified.
func (f *LU) SolveLeft(b []float64) []float64 {
	return f.SolveLeftInto(make([]float64, f.N()), b)
}

// SolveLeftInto solves x·A = b into dst and returns dst. dst must
// have length N; it may alias b. It performs no allocations.
//
// Aᵀ = Πᵀ·Uᵀ·Lᵀ·Π, and both transposed solves run in scatter form off
// the row-stored factors, stepping through perm in place: Uᵀ (lower
// triangular) forward with each finished component pushed into the
// rows after it, Lᵀ (unit upper triangular) backward the same way.
func (f *LU) SolveLeftInto(dst, b []float64) []float64 {
	n := f.N()
	if len(b) != n {
		panic(fmt.Sprintf("sparse: SolveLeft length %d, want %d", len(b), n))
	}
	if len(dst) != n {
		panic(fmt.Sprintf("sparse: SolveLeftInto dst length %d, want %d", len(dst), n))
	}
	z := dst
	if &z[0] != &b[0] {
		copy(z, b)
	}
	sym := f.sym
	for s := 0; s < n; s++ {
		i := sym.perm[s]
		zi := z[i] / f.ud[s]
		z[i] = zi
		if zi != 0 {
			lo, hi := sym.up[s], sym.up[s+1]
			ui, ux := sym.ui[lo:hi], f.ux[lo:hi]
			for q, j := range ui {
				z[j] -= ux[q] * zi
			}
		}
	}
	for s := n - 1; s >= 1; s-- {
		zi := z[sym.perm[s]]
		if zi == 0 {
			continue
		}
		lo, hi := sym.lp[s], sym.lp[s+1]
		li, lx := sym.li[lo:hi], f.lx[lo:hi]
		for q, j := range li {
			z[j] -= lx[q] * zi
		}
	}
	return z
}

// Cond1Est returns κ₁(A) = ‖A‖₁·‖A⁻¹‖₁. Where the dense matrix.LU
// must estimate ‖A⁻¹‖₁ with Hager's power method (ten solves), the
// M-matrix structure this factorization requires makes it exact in
// one: a nonsingular M-matrix has an entrywise non-negative inverse,
// so ‖A⁻¹‖₁ = max_j Σ_i |A⁻¹_ij| = max_j (1ᵀ·A⁻¹)_j — a single left
// solve with the all-ones vector. The result upper-bounds what Hager
// would report (an estimator never exceeds the true norm), so Factor's
// gate against matrix.CondLimit is at least as strict as a dense one.
func (f *LU) Cond1Est() float64 {
	z := make([]float64, f.N())
	for i := range z {
		z[i] = 1
	}
	f.SolveLeftInto(z, z)
	if !finiteVec(z) {
		return math.Inf(1)
	}
	var inv float64
	for _, v := range z {
		// |·| guards the tiny negative entries round-off can leave.
		if a := math.Abs(v); a > inv {
			inv = a
		}
	}
	return inv * f.anorm
}

func finiteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
