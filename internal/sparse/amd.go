package sparse

import "math"

// amdOrder returns an approximate minimum degree elimination order for
// the pattern of P + Pᵀ, after Amestoy, Davis and Duff, "An approximate
// minimum degree ordering algorithm", SIAM J. Matrix Anal. Appl. 17(4),
// 1996. Elimination runs on the quotient graph: an eliminated pivot
// becomes an element standing for the clique it created, so the graph
// never grows. Each variable i keeps its adjacent elements E_i and its
// adjacent variables A_i; each element e keeps its variables L_e. The
// paper's refinements are all here:
//
//   - approximate external degrees, d̄_i = min(d̄_i + |L_p∖i|,
//     |A_i∖i| + |L_p∖i| + Σ_{e∈E_i∖p} |L_e∖L_p|), bounded by the
//     number of variables left;
//   - element absorption (every element of E_p, and aggressively any
//     element with L_e ⊆ L_p);
//   - mass elimination of variables adjacent to p alone;
//   - supervariables: variables of L_p with equal E and A lists merge
//     and are eliminated together.
//
// Rows denser than 10·√n (at least 16) would dominate the degree
// updates while barely changing the order; they are left out of the
// graph and ordered last.
//
// The order is deterministic: the pivot is the most recently inserted
// variable of least degree, and every other choice is a function of
// the pattern and its numbering alone.
func amdOrder(pat *Pattern) []int32 {
	n := int32(pat.rows)
	cp, adj := symmetricAdjacency(pat)
	g := &quotientGraph{
		lists:  adj,
		start:  cp[:n],
		size:   make([]int32, n),
		nelt:   make([]int32, n),
		nv:     make([]int32, n),
		deg:    make([]int32, n),
		ew:     make([]int32, n),
		head:   make([]int32, n+1),
		next:   make([]int32, n),
		prev:   make([]int32, n),
		w:      make([]int32, n),
		wStamp: make([]int32, n),
		vStamp: make([]int32, n),
		hash:   make([]uint32, n),
		dother: make([]int32, n),
		tail:   make([]int32, n),
		chain:  make([]int32, n),
		bucket: make([]int32, n),
		hnext:  make([]int32, n),
		inList: make([]int32, n),
		order:  make([]int32, 0, n),
	}
	for i := range g.head {
		g.head[i] = -1
	}
	for i := range g.bucket {
		g.bucket[i] = -1
	}
	// Rows denser than the threshold leave the graph; the others start
	// as variables of weight 1, and those left without a neighbour are
	// eliminated at once.
	dense := int32(max(16, 10*math.Sqrt(float64(n))))
	var denseRows []int32
	for i := int32(0); i < n; i++ {
		g.size[i] = cp[i+1] - cp[i]
		g.tail[i], g.chain[i] = i, -1
		if g.size[i] > dense {
			denseRows = append(denseRows, i)
		} else {
			g.nv[i] = 1
		}
	}
	for i := int32(0); i < n; i++ {
		if g.nv[i] == 0 {
			continue
		}
		d := int32(0)
		for _, j := range g.list(i) {
			d += g.nv[j]
		}
		if d == 0 {
			g.nv[i] = 0
			g.order = append(g.order, i)
			continue
		}
		g.live++
		g.deg[i] = d
		g.push(i)
	}
	for g.eliminated < g.live {
		g.eliminate(g.pop())
	}
	g.order = append(g.order, denseRows...)
	return g.order
}

// quotientGraph is amdOrder's working state. A node is a principal
// variable while nv > 0 and a live element while ew > 0; merged and
// eliminated variables, absorbed elements and dense rows have neither.
// Node i's list is lists[start[i] : start[i]+size[i]]: for a variable,
// its nelt[i] elements followed by its variables; for an element, its
// variables. Lists may still name nodes that have since died; every
// scan skips them. A variable's list never grows (each elimination that adds p to E_i
// also drops an absorbed element or p itself from it), so it is
// rewritten in place; element lists are appended at the end.
type quotientGraph struct {
	lists             []int32
	start, size, nelt []int32
	nv                []int32 // principal variable weight
	ew                []int32 // element weight |L_e|
	deg               []int32 // approximate external degree

	head, next, prev []int32 // degree buckets, doubly linked
	mindeg           int32

	step          int32
	w, wStamp     []int32 // |L_e ∖ L_p|, valid where wStamp[e] == step
	vStamp        []int32 // vStamp[i] == step: i is in L_p (or p)
	hash          []uint32
	dother        []int32 // d̄_i without the L_p term
	tail, chain   []int32 // variables merged into i: i, chain[i], …, tail[i]
	inList        []int32 // inList[x] == cmpStamp: x is in the list compared against
	cmpStamp      int32
	live          int32 // variables in the graph at the start
	eliminated    int32 // weight of the variables eliminated so far
	order         []int32
	hashed        []int32 // the variables of L_p, for supervariable detection
	bucket, hnext []int32 // hash buckets of hashed, chained
	massElim      []int32 // the variables eliminated with p
}

func (g *quotientGraph) list(i int32) []int32 {
	return g.lists[g.start[i] : g.start[i]+g.size[i]]
}

func (g *quotientGraph) push(i int32) {
	d := g.deg[i]
	g.prev[i], g.next[i] = -1, g.head[d]
	if g.head[d] != -1 {
		g.prev[g.head[d]] = i
	}
	g.head[d] = i
	g.mindeg = min(g.mindeg, d)
}

func (g *quotientGraph) remove(i int32) {
	if g.prev[i] != -1 {
		g.next[g.prev[i]] = g.next[i]
	} else {
		g.head[g.deg[i]] = g.next[i]
	}
	if g.next[i] != -1 {
		g.prev[g.next[i]] = g.prev[i]
	}
}

// pop removes and returns a variable of least approximate degree.
func (g *quotientGraph) pop() int32 {
	for g.head[g.mindeg] == -1 {
		g.mindeg++
	}
	p := g.head[g.mindeg]
	g.remove(p)
	return p
}

// emit appends i and the variables merged into it to the order.
func (g *quotientGraph) emit(i int32) {
	for ; i != -1; i = g.chain[i] {
		g.order = append(g.order, i)
	}
}

// eliminate makes the variable p an element and updates its
// neighbourhood.
func (g *quotientGraph) eliminate(p int32) {
	g.step++
	step := g.step
	g.eliminated += g.nv[p]

	// L_p: the live variables of A_p and of every element of E_p; the
	// elements of E_p are absorbed into p. The list goes at the end of
	// lists, which first makes room for every variable left.
	g.reserve(g.live - g.eliminated)
	nv, ew, w, vStamp := g.nv, g.ew, g.w, g.vStamp
	lp0 := int32(len(g.lists))
	vStamp[p] = step
	dk := int32(0)
	add := func(v int32) {
		if nv[v] > 0 && vStamp[v] != step {
			vStamp[v] = step
			g.lists = append(g.lists, v)
			dk += nv[v]
			g.remove(v)
		}
	}
	pl := g.list(p)
	for _, e := range pl[:g.nelt[p]] {
		if ew[e] == 0 {
			continue
		}
		for _, v := range g.list(e) {
			add(v)
		}
		ew[e] = 0
	}
	for _, v := range pl[g.nelt[p]:] {
		add(v)
	}
	nv[p], ew[p] = 0, dk
	g.start[p], g.size[p], g.nelt[p] = lp0, int32(len(g.lists))-lp0, 0
	lp := g.lists[lp0:]

	// |L_e ∖ L_p| for every other element adjacent to L_p.
	for _, v := range lp {
		for _, e := range g.list(v)[:g.nelt[v]] {
			if ew[e] == 0 {
				continue
			}
			if g.wStamp[e] != step {
				g.wStamp[e], w[e] = step, ew[e]
			}
			w[e] -= nv[v]
		}
	}

	// Prune every variable's lists, put p in its E, and bound its
	// degree; a variable adjacent to nothing but p is eliminated with
	// it.
	g.hashed = g.hashed[:0]
	g.massElim = g.massElim[:0]
	for _, v := range lp {
		l := g.list(v)
		ne, kept := g.nelt[v], int32(0)
		var h uint32
		dext := int32(0)
		for _, e := range l[:ne] {
			if ew[e] == 0 {
				continue // absorbed
			}
			if w[e] == 0 { // L_e ⊆ L_p: absorbed into p
				ew[e] = 0
				continue
			}
			l[kept] = e
			kept++
			dext += w[e]
			h += uint32(e) * 0x9e3779b1
		}
		keptE := kept
		for _, j := range l[ne:] {
			if nv[j] == 0 || vStamp[j] == step {
				continue // not a principal variable, or covered by p
			}
			l[kept] = j
			kept++
			dext += nv[j]
			h += uint32(j) * 0x85ebca77
		}
		if kept == 0 {
			g.massElim = append(g.massElim, v)
			dk -= nv[v]
			g.eliminated += nv[v]
			nv[v] = 0
			continue
		}
		// E_v = {p} ∪ kept elements, then the kept variables. There is
		// room: v reached L_p through an element of E_p, now absorbed
		// and dropped from E_v, or through A_p, and then p, no longer a
		// variable, was dropped from A_v (A lists stay symmetric among
		// live variables).
		if keptE < kept {
			l[kept] = l[keptE]
		}
		l[keptE] = p
		g.size[v], g.nelt[v] = kept+1, keptE+1
		g.dother[v] = min(g.deg[v], dext)
		g.hash[v] = h
		g.hashed = append(g.hashed, v)
	}
	g.detectSupervariables()

	// Finalize L_p (its principal variables only) and their degrees.
	lp = g.list(p)
	q := 0
	left := g.live - g.eliminated
	for _, v := range lp {
		if nv[v] == 0 {
			continue
		}
		lp[q] = v
		q++
		g.deg[v] = min(g.dother[v]+dk-nv[v], left-nv[v])
		g.push(v)
	}
	g.lists = g.lists[:lp0+int32(q)]
	g.size[p], ew[p] = int32(q), dk
	g.emit(p)
	for _, v := range g.massElim {
		g.emit(v)
	}
}

// detectSupervariables merges the variables of L_p whose element and
// variable lists are equal. Candidates are chained into buckets by list
// hash; the lists of each bucket's pairs of equal hash are compared
// exactly.
func (g *quotientGraph) detectSupervariables() {
	n := uint32(len(g.bucket))
	for _, v := range g.hashed {
		b := g.hash[v] % n
		g.hnext[v], g.bucket[b] = g.bucket[b], v
	}
	for _, v := range g.hashed {
		b := g.hash[v] % n
		i := g.bucket[b]
		g.bucket[b] = -1 // each bucket is compared once
		for ; i != -1; i = g.hnext[i] {
			if g.nv[i] == 0 {
				continue
			}
			g.cmpStamp++
			for _, x := range g.list(i) {
				g.inList[x] = g.cmpStamp
			}
			for j := g.hnext[i]; j != -1; j = g.hnext[j] {
				if g.nv[j] == 0 || g.hash[j] != g.hash[i] || g.size[j] != g.size[i] || g.nelt[j] != g.nelt[i] {
					continue
				}
				same := true
				for _, x := range g.list(j) {
					if g.inList[x] != g.cmpStamp {
						same = false
						break
					}
				}
				if !same {
					continue
				}
				g.nv[i] += g.nv[j]
				g.nv[j] = 0
				g.dother[i] = min(g.dother[i], g.dother[j])
				g.chain[g.tail[i]] = j
				g.tail[i] = g.tail[j]
			}
		}
	}
}

// reserve makes room to append extra entries to lists without moving
// it, compacting the live lists into a new array when it must grow.
func (g *quotientGraph) reserve(extra int32) {
	if int32(cap(g.lists)-len(g.lists)) >= extra {
		return
	}
	used := extra
	for i := range g.nv {
		if g.nv[i] > 0 || g.ew[i] > 0 {
			used += g.size[i]
		}
	}
	lists := make([]int32, 0, 2*used)
	for i := range g.nv {
		if g.nv[i] > 0 || g.ew[i] > 0 {
			l := g.list(int32(i))
			g.start[i] = int32(len(lists))
			lists = append(lists, l...)
		}
	}
	g.lists = lists
}

// symmetricAdjacency returns the pattern of P + Pᵀ without its
// diagonal as adjacency lists: node i's neighbours are ci[cp[i]:cp[i+1]].
func symmetricAdjacency(pat *Pattern) (cp, ci []int32) {
	n := pat.rows
	// Pᵀ by counting sort.
	tp := make([]int32, n+1)
	for _, j := range pat.colIdx {
		tp[j+1]++
	}
	for i := 0; i < n; i++ {
		tp[i+1] += tp[i]
	}
	ti := make([]int32, len(pat.colIdx))
	fillAt := append([]int32(nil), tp[:n]...)
	for i := 0; i < n; i++ {
		for q := pat.rowPtr[i]; q < pat.rowPtr[i+1]; q++ {
			j := pat.colIdx[q]
			ti[fillAt[j]] = int32(i)
			fillAt[j]++
		}
	}
	cp = make([]int32, n+1)
	ci = make([]int32, 0, 2*len(pat.colIdx))
	seen := fillAt // reused as a marker
	for i := range seen {
		seen[i] = -1
	}
	for i := 0; i < n; i++ {
		i32 := int32(i)
		seen[i] = i32
		for q := pat.rowPtr[i]; q < pat.rowPtr[i+1]; q++ {
			if j := pat.colIdx[q]; seen[j] != i32 {
				seen[j] = i32
				ci = append(ci, j)
			}
		}
		for _, j := range ti[tp[i]:tp[i+1]] {
			if seen[j] != i32 {
				seen[j] = i32
				ci = append(ci, j)
			}
		}
		cp[i+1] = int32(len(ci))
	}
	return cp, ci
}
