package sparse

import (
	"fmt"
	"sort"
)

// RowBuilder assembles a CSR Pattern from entries emitted in
// non-decreasing row order — the natural order of the level-matrix
// generators, whose state loops walk rows ascending — and records a
// slot for every emitted entry: the position of its (row, column) in
// the finished pattern's value array. Entries that repeat a (row,
// column) share its slot, so a value pass that adds each emitted
// weight into its slot in emission order reproduces dense
// accumulation bitwise. No values are stored: an entry whose weight
// later turns out to be zero is still a structural entry.
//
// A RowBuilder is reusable: Reset reinitializes it for a new pattern
// while keeping the backing arrays.
type RowBuilder struct {
	rows, cols int
	cur        int // the open (lowest still-appendable) row
	rowPtr     []int32
	colIdx     []int32
	// slots holds one entry per Add. While an entry's row is open it
	// holds the entry's column; closing the row rewrites it to the
	// final position in colIdx.
	slots []int32
	open  int // first slot of the open row
}

// NewRowBuilder returns a RowBuilder for a rows×cols pattern.
func NewRowBuilder(rows, cols int) *RowBuilder {
	b := &RowBuilder{}
	b.Reset(rows, cols)
	return b
}

// Reset reinitializes the builder for a new rows×cols pattern, reusing
// the backing storage of previous builds.
func (b *RowBuilder) Reset(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: invalid dimensions %dx%d", rows, cols))
	}
	b.rows, b.cols, b.cur, b.open = rows, cols, 0, 0
	b.rowPtr = append(b.rowPtr[:0], 0)
	b.colIdx = b.colIdx[:0]
	b.slots = b.slots[:0]
}

// Add emits an entry at (i, j). Rows must be visited in non-decreasing
// order of i; within a row, columns may arrive in any order and
// repeats share one slot.
func (b *RowBuilder) Add(i, j int) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %dx%d", i, j, b.rows, b.cols))
	}
	if i < b.cur {
		panic(fmt.Sprintf("sparse: RowBuilder row %d after row %d was closed", i, b.cur))
	}
	for b.cur < i {
		b.closeRow()
	}
	b.slots = append(b.slots, int32(j))
	// Level-matrix rows are a handful of entries, so the linear scan
	// beats any index structure.
	for _, c := range b.colIdx[b.rowPtr[len(b.rowPtr)-1]:] {
		if c == int32(j) {
			return
		}
	}
	b.colIdx = append(b.colIdx, int32(j))
}

// Len returns the number of entries emitted so far.
func (b *RowBuilder) Len() int { return len(b.slots) }

// closeRow finalizes the open row: its column list is insertion-sorted
// into the ascending layout every kernel iterates in, and the row's
// slots are rewritten from columns to positions.
func (b *RowBuilder) closeRow() {
	start := b.rowPtr[len(b.rowPtr)-1]
	ci := b.colIdx[start:]
	for i := 1; i < len(ci); i++ {
		c := ci[i]
		j := i - 1
		for j >= 0 && ci[j] > c {
			ci[j+1] = ci[j]
			j--
		}
		ci[j+1] = c
	}
	for q := b.open; q < len(b.slots); q++ {
		col := b.slots[q]
		b.slots[q] = start + int32(sort.Search(len(ci), func(x int) bool { return ci[x] >= col }))
	}
	b.open = len(b.slots)
	b.rowPtr = append(b.rowPtr, int32(len(b.colIdx)))
	b.cur++
}

// Build closes the remaining rows and returns the finished pattern and
// the slot of every emitted entry, in emission order. The builder may
// be Reset and reused afterwards; the results own fresh exact-length
// storage.
func (b *RowBuilder) Build() (*Pattern, []int32) {
	for b.cur < b.rows {
		b.closeRow()
	}
	p := &Pattern{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: append([]int32(nil), b.rowPtr...),
		colIdx: append([]int32(nil), b.colIdx...),
	}
	return p, append([]int32(nil), b.slots...)
}
