// Package sparse provides compressed sparse row (CSR) matrices and
// the structured LU the transient solver factors every level with.
// The level matrices P_k, Q_k, R_k are extremely sparse — each state
// has one outgoing entry per active service phase times routing
// fan-out — so this package supplies the left/right solve operations
// at every scale: matrix-vector products over CSR plus a no-pivot LU
// of I − P, analyzed once per pattern and refactored per matrix. The
// dense LU in internal/matrix is not on this path; it remains the
// independent reference the tests compare against.
package sparse

import (
	"fmt"
	"sort"

	"finwl/internal/matrix"
)

// Pattern is the immutable structure of a CSR matrix: its dimensions,
// row pointers and ascending column indices, without values. Matrices
// built over one Pattern share its arrays, which is how the level
// chains of networks with the same shape share one structure.
type Pattern struct {
	rows, cols int
	rowPtr     []int32
	colIdx     []int32
}

// Rows returns the row count.
func (p *Pattern) Rows() int { return p.rows }

// Cols returns the column count.
func (p *Pattern) Cols() int { return p.cols }

// NNZ returns the number of stored entries.
func (p *Pattern) NNZ() int { return len(p.colIdx) }

// Bytes returns the memory held by the pattern's arrays.
func (p *Pattern) Bytes() int64 { return 4 * int64(len(p.rowPtr)+len(p.colIdx)) }

// WithValues returns the matrix with this structure and the given
// stored values, one per entry in row-major order. vals is shared, not
// copied.
func (p *Pattern) WithValues(vals []float64) *CSR {
	if len(vals) != len(p.colIdx) {
		panic(fmt.Sprintf("sparse: %d values for a pattern of %d entries", len(vals), len(p.colIdx)))
	}
	return &CSR{Pattern: *p, vals: vals}
}

// CSR is an immutable compressed-sparse-row matrix.
type CSR struct {
	Pattern
	vals []float64
}

// Builder accumulates coordinate-format entries; duplicates are
// summed at Build time.
type Builder struct {
	rows, cols int
	is, js     []int
	vs         []float64
}

// NewBuilder returns a Builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: invalid dimensions %dx%d", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
}

// Add accumulates v at (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %dx%d", i, j, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	b.is = append(b.is, i)
	b.js = append(b.js, j)
	b.vs = append(b.vs, v)
}

// Build converts the accumulated entries to CSR, summing duplicates.
func (b *Builder) Build() *CSR {
	n := len(b.is)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ox, oy := order[x], order[y]
		if b.is[ox] != b.is[oy] {
			return b.is[ox] < b.is[oy]
		}
		return b.js[ox] < b.js[oy]
	})
	m := &CSR{Pattern: Pattern{rows: b.rows, cols: b.cols, rowPtr: make([]int32, b.rows+1)}}
	lastI, lastJ := -1, -1
	for _, o := range order {
		i, j, v := b.is[o], b.js[o], b.vs[o]
		if i == lastI && j == lastJ {
			m.vals[len(m.vals)-1] += v
			continue
		}
		m.colIdx = append(m.colIdx, int32(j))
		m.vals = append(m.vals, v)
		lastI, lastJ = i, j
		m.rowPtr[i+1]++
	}
	for i := 0; i < b.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// At returns the value at (i, j); O(log nnz(row i)).
func (m *CSR) At(i, j int) float64 {
	lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
	cols := m.colIdx[lo:hi]
	idx := sort.Search(len(cols), func(q int) bool { return int(cols[q]) >= j })
	if idx < len(cols) && int(cols[idx]) == j {
		return m.vals[lo+idx]
	}
	return 0
}

// MulVec returns A·x.
func (m *CSR) MulVec(x []float64) []float64 {
	return m.MulVecInto(make([]float64, m.rows), x)
}

// MulVecInto computes A·x into dst and returns dst. dst must have
// length Rows and must not alias x. It performs no allocations.
func (m *CSR) MulVecInto(dst, x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec length %d, want %d", len(x), m.cols))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecInto dst length %d, want %d", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.vals[p] * x[m.colIdx[p]]
		}
		dst[i] = s
	}
	return dst
}

// VecMul returns x·A (x treated as a row vector).
func (m *CSR) VecMul(x []float64) []float64 {
	return m.VecMulInto(make([]float64, m.cols), x)
}

// VecMulInto computes x·A into dst and returns dst. dst must have
// length Cols and must not alias x. It performs no allocations.
func (m *CSR) VecMulInto(dst, x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("sparse: VecMul length %d, want %d", len(x), m.rows))
	}
	if len(dst) != m.cols {
		panic(fmt.Sprintf("sparse: VecMulInto dst length %d, want %d", len(dst), m.cols))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		xv := x[i]
		if xv == 0 {
			continue
		}
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			dst[m.colIdx[p]] += xv * m.vals[p]
		}
	}
	return dst
}

// IMinusDense returns I − A as a dense matrix: the per-level system
// A_k = I − P_k in the form the dense reference computations consume.
// The entry values are identical to matrix.Identity(n).Sub(dense P):
// absent entries stay at the exact identity values and stored entries
// are the same one subtraction.
func (m *CSR) IMinusDense() *matrix.Matrix {
	if m.rows != m.cols {
		panic(fmt.Sprintf("sparse: IMinusDense requires a square matrix, got %dx%d", m.rows, m.cols))
	}
	d := matrix.Identity(m.rows)
	for i := 0; i < m.rows; i++ {
		row := d.RawRow(i)
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			row[m.colIdx[p]] -= m.vals[p]
		}
	}
	return d
}

// RowSums returns the vector of row sums.
func (m *CSR) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			out[i] += m.vals[p]
		}
	}
	return out
}

// Transpose returns Aᵀ as a new CSR.
func (m *CSR) Transpose() *CSR {
	b := NewBuilder(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			b.Add(int(m.colIdx[p]), i, m.vals[p])
		}
	}
	return b.Build()
}

// Dense expands to a dense matrix (for tests and small systems).
func (m *CSR) Dense() *matrix.Matrix {
	d := matrix.New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			d.Set(i, int(m.colIdx[p]), m.vals[p])
		}
	}
	return d
}

// FromDense converts a dense matrix, dropping exact zeros.
func FromDense(d *matrix.Matrix) *CSR {
	b := NewBuilder(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		row := d.RawRow(i)
		for j, v := range row {
			if v != 0 {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}
