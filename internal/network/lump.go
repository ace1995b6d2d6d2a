package network

import (
	"math"

	"finwl/internal/phase"
	"finwl/internal/statespace"
)

// exchangeClasses returns the network's classes of exchangeable
// stations, each of two or more members in ascending order, or nil.
// Two stations are exchangeable when they have one shape (kind, phase
// count, servers), bitwise-equal service laws, entry and exit
// probabilities, and swapping them leaves the routing matrix
// unchanged. The swaps that do so generate a group, so the relation is
// an equivalence: one check against each class's first member places
// a station, for O(m³) work in all and no automorphism search. Every
// permutation within the classes then maps the network onto itself,
// which makes the orbit partition of the state space strongly
// lumpable, with p_k and every per-state epoch time constant on each
// orbit.
func (n *Network) exchangeClasses() [][]int {
	m := len(n.Stations)
	if n.Route == nil || n.Route.Rows() != m || n.Route.Cols() != m || len(n.Entry) != m || len(n.Exit) != m {
		return nil
	}
	shapes := n.shapes()
	var classes [][]int
	for i := 0; i < m; i++ {
		placed := false
		for c, cl := range classes {
			if n.exchangeable(shapes, cl[0], i) {
				classes[c] = append(cl, i)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []int{i})
		}
	}
	out := classes[:0]
	for _, cl := range classes {
		if len(cl) > 1 {
			out = append(out, cl)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// exchangeable reports whether swapping stations i and j maps the
// network onto itself.
func (n *Network) exchangeable(shapes []statespace.StationShape, i, j int) bool {
	if shapes[i] != shapes[j] || !sameBits(n.Entry[i], n.Entry[j]) || !sameBits(n.Exit[i], n.Exit[j]) ||
		!samePH(n.Stations[i].Service, n.Stations[j].Service) {
		return false
	}
	r := n.Route
	if !sameBits(r.At(i, i), r.At(j, j)) || !sameBits(r.At(i, j), r.At(j, i)) {
		return false
	}
	for x := range n.Stations {
		if x != i && x != j && (!sameBits(r.At(i, x), r.At(j, x)) || !sameBits(r.At(x, i), r.At(x, j))) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// samePH reports whether two service laws have bitwise-equal
// parameters.
func samePH(a, b *phase.PH) bool {
	if a.Dim() != b.Dim() {
		return false
	}
	for p := range a.Alpha {
		if !sameBits(a.Alpha[p], b.Alpha[p]) || !sameBits(a.Rates[p], b.Rates[p]) {
			return false
		}
		rowA, rowB := a.Trans.RawRow(p), b.Trans.RawRow(p)
		for q := range rowA {
			if !sameBits(rowA[q], rowB[q]) {
				return false
			}
		}
	}
	return true
}
