package sparse

import (
	"math/rand"
	"testing"

	"finwl/internal/matrix"
)

// rowBuild emits entries into a RowBuilder and replays their values
// through the returned slots, the way the level build fills a pattern.
func rowBuild(rb *RowBuilder, is, js []int, vs []float64) *CSR {
	for e := range is {
		rb.Add(is[e], js[e])
	}
	pat, slots := rb.Build()
	vals := make([]float64, pat.NNZ())
	for e, s := range slots {
		vals[s] += vs[e]
	}
	return pat.WithValues(vals)
}

// A RowBuilder pattern filled through its slots must agree with the
// sorting Builder for any emission that respects the row-order
// contract — same merged values, same CSR layout.
func TestRowBuilderMatchesBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+r.Intn(12), 1+r.Intn(12)
		cb := NewBuilder(rows, cols)
		var is, js []int
		var vs []float64
		for i := 0; i < rows; i++ {
			for e := r.Intn(6); e > 0; e-- {
				j, v := r.Intn(cols), r.NormFloat64()
				is, js, vs = append(is, i), append(js, j), append(vs, v)
				cb.Add(i, j, v)
			}
		}
		got, want := rowBuild(NewRowBuilder(rows, cols), is, js, vs).Dense(), cb.Build().Dense()
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Fatalf("trial %d: RowBuilder diverges from Builder by %g", trial, d)
		}
	}
}

// In-row repeats share a slot (values merge in emission order), columns
// sort on row close, and an entry stays structural whatever its value.
func TestRowBuilderMergeAndSort(t *testing.T) {
	b := NewRowBuilder(2, 4)
	b.Add(0, 3)
	b.Add(0, 1)
	b.Add(0, 3) // repeat: same slot as the first
	b.Add(0, 2) // kept even if its weight is zero
	b.Add(1, 0)
	pat, slots := b.Build()
	if got := pat.NNZ(); got != 4 {
		t.Fatalf("nnz = %d, want 4", got)
	}
	want := []int32{2, 0, 2, 1, 3}
	for e, s := range slots {
		if s != want[e] {
			t.Fatalf("slots = %v, want %v", slots, want)
		}
	}
	m := pat.WithValues([]float64{2.0, 0, 1.5 + 0.25, 1.0})
	d := m.Dense()
	if d.At(0, 3) != 1.75 || d.At(0, 1) != 2.0 || d.At(1, 0) != 1.0 || d.At(0, 2) != 0 {
		t.Fatalf("unexpected entries: %v", d)
	}
}

// Reset reuses the backing arrays: a pooled builder must produce
// identical patterns across generations with no cross-talk.
func TestRowBuilderReset(t *testing.T) {
	b := NewRowBuilder(3, 3)
	b.Add(0, 0)
	b.Add(2, 1)
	first, firstSlots := b.Build()
	b.Reset(2, 5)
	b.Add(1, 4)
	second, secondSlots := b.Build()
	if first.NNZ() != 2 || second.NNZ() != 1 || len(firstSlots) != 2 || len(secondSlots) != 1 {
		t.Fatalf("nnz = %d, %d, want 2, 1", first.NNZ(), second.NNZ())
	}
	if r, c := second.Rows(), second.Cols(); r != 2 || c != 5 {
		t.Fatalf("second dims = %dx%d, want 2x5", r, c)
	}
	if second.WithValues([]float64{3}).Dense().At(1, 4) != 3 {
		t.Fatal("entry lost across Reset")
	}
	// The first build owns its storage: reusing the builder afterwards
	// must not corrupt it.
	if first.WithValues([]float64{1, 2}).Dense().At(2, 1) != 2 || firstSlots[1] != 1 {
		t.Fatal("first build shares storage with the reset builder")
	}
}

// The row-order contract is enforced: revisiting a closed row panics
// rather than silently corrupting the layout.
func TestRowBuilderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("closed row", func() {
		b := NewRowBuilder(3, 3)
		b.Add(2, 0)
		b.Add(1, 0)
	})
	mustPanic("out of range", func() {
		NewRowBuilder(2, 2).Add(0, 5)
	})
	mustPanic("bad dims", func() { NewRowBuilder(0, 3) })
	mustPanic("value count", func() {
		b := NewRowBuilder(1, 1)
		b.Add(0, 0)
		pat, _ := b.Build()
		pat.WithValues(nil)
	})
}

// A build through RowBuilder must round-trip through MulVec the same
// as a dense multiply — the layout invariants (sorted columns, exact
// row pointers) are what the kernels rely on.
func TestRowBuilderKernelLayout(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := matrix.New(8, 6)
	var is, js []int
	var vs []float64
	for i := 0; i < 8; i++ {
		for e := 0; e < 3; e++ {
			j, v := r.Intn(6), r.NormFloat64()
			is, js, vs = append(is, i), append(js, j), append(vs, v)
			d.Inc(i, j, v)
		}
	}
	m := rowBuild(NewRowBuilder(8, 6), is, js, vs)
	x := make([]float64, 6)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	got, want := m.MulVec(x), d.MulVec(x)
	if matrix.NormInf(matrix.VecSub(got, want)) > 1e-12 {
		t.Fatalf("MulVec diverges: %v vs %v", got, want)
	}
}
