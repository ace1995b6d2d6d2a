package stream

import (
	"math"

	"finwl/internal/network"
)

// block is one bookkeeping cell of the augmented chain: a fixed
// (jobs-arrived, departures) pair in open mode or a (jobs-in-system,
// remaining-of-oldest) pair in closed mode, holding phDim phase
// states times the dk network states of level k.
type block struct {
	offset int // global index of the block's first state
	n      int // states in the block = phDim·dk
	phDim  int
	dk     int // network states at level k
	k      int // network level = min(j, K)
	j      int // tasks in the system (admitted + queued)
	g, d   int // open mode: jobs arrived, departures
	// arriving is set in open mode while jobs are still to arrive
	// (g < Jobs): the renewal clock runs and adds its phase moves.
	arriving bool
	m, r     int // closed mode: jobs in system, remaining tasks of the oldest
}

// graph is the assembled augmented CTMC: a flat adjacency list over
// the transient states (edges to the absorbing drained state use
// target −1), the per-state total outflow rate, the tasks-in-system
// observable, and the initial distribution. Open-mode blocks appear
// in topological order — arrivals and departures only move the
// bookkeeping forward — which is what meanAbsorption's backward
// substitution relies on.
type graph struct {
	blocks    []block
	total     int
	rowPtr    []int
	to        []int
	rate      []float64
	exit      []float64
	tasks     []float64
	init      []float64
	absorbing bool
}

// newGraph assigns block offsets and sizes the state-indexed slices.
// States must then be emitted strictly in index order via state /
// edge / endState.
func newGraph(blocks []block, absorbing bool) *graph {
	total := 0
	for i := range blocks {
		blocks[i].offset = total
		total += blocks[i].n
	}
	return &graph{
		blocks:    blocks,
		total:     total,
		absorbing: absorbing,
		rowPtr:    append(make([]int, 0, total+1), 0),
		exit:      make([]float64, 0, total),
		tasks:     make([]float64, 0, total),
		init:      make([]float64, total),
	}
}

func (g *graph) state(j int) { g.tasks = append(g.tasks, float64(j)) }

func (g *graph) edge(to int, rate float64) {
	if rate == 0 {
		return
	}
	g.to = append(g.to, to)
	g.rate = append(g.rate, rate)
}

func (g *graph) endState(exit float64) {
	g.exit = append(g.exit, exit)
	g.rowPtr = append(g.rowPtr, len(g.to))
}

// levelOps caches dense row views of the per-level matrices the
// builder walks repeatedly: P rows, departure rows (Q, or Q·R when a
// queued task immediately refills the freed slot), and batch-admit
// chains R_{k+1}···R_{k'}.
type levelOps struct {
	chain *network.Chain
	p     map[int][][]float64
	dep   map[[2]int][][]float64 // {level, refill}
	admit map[[2]int][][]float64 // {kFrom, kTo}
}

func newLevelOps(chain *network.Chain) *levelOps {
	return &levelOps{
		chain: chain,
		p:     map[int][][]float64{},
		dep:   map[[2]int][][]float64{},
		admit: map[[2]int][][]float64{},
	}
}

func (o *levelOps) pRows(k int) [][]float64 {
	if r, ok := o.p[k]; ok {
		return r
	}
	lvl := o.chain.Levels[k]
	dm := lvl.P.Dense()
	rows := make([][]float64, lvl.States.Count())
	for i := range rows {
		rows[i] = dm.RawRow(i)
	}
	o.p[k] = rows
	return rows
}

func (o *levelOps) depRows(k int, refill bool) [][]float64 {
	key := [2]int{k, 0}
	if refill {
		key[1] = 1
	}
	if r, ok := o.dep[key]; ok {
		return r
	}
	lvl := o.chain.Levels[k]
	d := lvl.States.Count()
	rows := make([][]float64, d)
	e := make([]float64, d)
	for i := 0; i < d; i++ {
		e[i] = 1
		row := lvl.Q.VecMul(e) // row i of Q_k
		if refill {
			row = lvl.R.VecMul(row) // · R_k: the freed slot refills
		}
		rows[i] = row
		e[i] = 0
	}
	o.dep[key] = rows
	return rows
}

func (o *levelOps) admitRows(kFrom, kTo int) [][]float64 {
	key := [2]int{kFrom, kTo}
	if r, ok := o.admit[key]; ok {
		return r
	}
	d := o.chain.D(kFrom)
	rows := make([][]float64, d)
	for i := 0; i < d; i++ {
		v := make([]float64, d)
		v[i] = 1
		for k := kFrom + 1; k <= kTo; k++ {
			v = o.chain.Levels[k].R.VecMul(v)
		}
		rows[i] = v
	}
	o.admit[key] = rows
	return rows
}

// buildOpen assembles the open-mode chain: blocks (g jobs arrived,
// d departures) for g = 1..G (job 1 arrives at t = 0), d = 0..g·B,
// with j = g·B − d tasks in the system. While g < G the state carries
// the renewal arrival phase; the last arrival retires the clock and
// the phase dimension collapses to one. The (G, G·B) cell is the
// absorbing drained state.
func buildOpen(cfg *Config, chain *network.Chain) *graph {
	b, G := cfg.JobTasks, cfg.Jobs
	K := len(chain.Levels) - 1
	A := cfg.Arrival.Dim()
	level := func(j int) int {
		if j > K {
			return K
		}
		return j
	}

	var blocks []block
	bIdx := map[[2]int]int{}
	for g := 1; g <= G; g++ {
		phDim := A
		if g == G {
			phDim = 1
		}
		for d := 0; d <= g*b; d++ {
			if g == G && d == g*b {
				continue // the absorbing drained state
			}
			j := g*b - d
			k := level(j)
			bIdx[[2]int{g, d}] = len(blocks)
			blocks = append(blocks, block{
				n: phDim * chain.D(k), phDim: phDim, dk: chain.D(k),
				k: k, j: j, g: g, d: d, arriving: g < G,
			})
		}
	}
	gr := newGraph(blocks, true)
	ops := newLevelOps(chain)
	loc := func(bi, a, i int) int {
		blk := &gr.blocks[bi]
		return blk.offset + a*blk.dk + i
	}

	for bi := range gr.blocks {
		blk := gr.blocks[bi]
		g, d, j, k := blk.g, blk.d, blk.j, blk.k
		var mdiag []float64
		var pRows, depRows [][]float64
		if k > 0 {
			mdiag = chain.Levels[k].MDiag
			pRows = ops.pRows(k)
			depRows = ops.depRows(k, j-1 >= K)
		}
		depTo := -1 // −1 = absorbing
		if !(g == G && d+1 == g*b) {
			depTo = bIdx[[2]int{g, d + 1}]
		}
		arrTo := -1
		var arrRows [][]float64
		if g < G {
			arrTo = bIdx[[2]int{g + 1, d}]
			arrRows = ops.admitRows(k, level(j+b))
		}
		for a := 0; a < blk.phDim; a++ {
			for i := 0; i < blk.dk; i++ {
				gr.state(j)
				var exit float64
				if k > 0 {
					m := mdiag[i]
					exit += m
					for i2, w := range pRows[i] {
						gr.edge(loc(bi, a, i2), m*w)
					}
					for i2, w := range depRows[i] {
						if w == 0 {
							continue
						}
						if depTo < 0 {
							gr.edge(-1, m*w)
						} else {
							gr.edge(loc(depTo, a, i2), m*w)
						}
					}
				}
				if g < G {
					mu := cfg.Arrival.Rates[a]
					exit += mu
					for a2, w := range cfg.Arrival.Trans.RawRow(a) {
						gr.edge(loc(bi, a2, i), mu*w)
					}
					if e := cfg.Arrival.ExitProb(a); e > 0 {
						nextPh := gr.blocks[arrTo].phDim
						for i2, w := range arrRows[i] {
							if w == 0 {
								continue
							}
							if nextPh == 1 {
								gr.edge(loc(arrTo, 0, i2), mu*e*w)
							} else {
								for a2, al := range cfg.Arrival.Alpha {
									gr.edge(loc(arrTo, a2, i2), mu*e*w*al)
								}
							}
						}
					}
				}
				gr.endState(exit)
			}
		}
	}

	// Initial distribution: job 1 just arrived into an empty system —
	// block (1, 0), network at the batch entry vector, arrival phase
	// ~ Alpha (or the collapsed phase when G == 1).
	first := bIdx[[2]int{1, 0}]
	blk := gr.blocks[first]
	entry := chain.EntryVector(blk.k)
	if blk.phDim == 1 {
		for i, w := range entry {
			gr.init[loc(first, 0, i)] = w
		}
	} else {
		for a, al := range cfg.Arrival.Alpha {
			for i, w := range entry {
				gr.init[loc(first, a, i)] = al * w
			}
		}
	}
	return gr
}

// buildClosed assembles the closed-mode chain: blocks (m jobs in
// system, r tasks remaining of the oldest job) for m = 1..J,
// r = 1..B, plus the all-thinking block (0, 0); j = (m−1)·B + r.
// The phase structure is the composition of the J − m thinking
// customers over the think phases. Job completion is attributed FIFO:
// every departure decrements the oldest job, and when it hits zero
// that customer rejoins the think pool at an Alpha-drawn phase.
func buildClosed(cfg *Config, chain *network.Chain) *graph {
	b, J := cfg.JobTasks, cfg.Customers
	K := len(chain.Levels) - 1
	at := cfg.Think.Dim()
	level := func(j int) int {
		if j > K {
			return K
		}
		return j
	}

	comps := make([]*compSet, J+1)
	for w := 0; w <= J; w++ {
		comps[w] = enumComps(w, at)
	}

	var blocks []block
	bIdx := map[[2]int]int{}
	add := func(m, r, j int) {
		k := level(j)
		bIdx[[2]int{m, r}] = len(blocks)
		phDim := len(comps[J-m].list)
		blocks = append(blocks, block{
			n: phDim * chain.D(k), phDim: phDim, dk: chain.D(k),
			k: k, j: j, m: m, r: r,
		})
	}
	add(0, 0, 0)
	for m := 1; m <= J; m++ {
		for r := 1; r <= b; r++ {
			add(m, r, (m-1)*b+r)
		}
	}
	gr := newGraph(blocks, false)
	ops := newLevelOps(chain)
	loc := func(bi, c, i int) int {
		blk := &gr.blocks[bi]
		return blk.offset + c*blk.dk + i
	}

	scratch := make([]int, at)
	for bi := range gr.blocks {
		blk := gr.blocks[bi]
		m, r, j, k := blk.m, blk.r, blk.j, blk.k
		w := J - m
		cs := comps[w]
		var mdiag []float64
		var pRows, depRows [][]float64
		depTo := -1
		var depComp *compSet
		if k > 0 {
			mdiag = chain.Levels[k].MDiag
			pRows = ops.pRows(k)
			depRows = ops.depRows(k, j-1 >= K)
			if r > 1 {
				depTo = bIdx[[2]int{m, r - 1}]
			} else if m > 1 {
				depTo = bIdx[[2]int{m - 1, b}]
				depComp = comps[w+1]
			} else {
				depTo = bIdx[[2]int{0, 0}]
				depComp = comps[J]
			}
		}
		subTo := -1
		var subRows [][]float64
		if m < J {
			r2 := r
			if m == 0 {
				r2 = b
			}
			subTo = bIdx[[2]int{m + 1, r2}]
			subRows = ops.admitRows(k, level(j+b))
		}
		for ci := 0; ci < blk.phDim; ci++ {
			c := cs.list[ci]
			for i := 0; i < blk.dk; i++ {
				gr.state(j)
				var exit float64
				if k > 0 {
					mm := mdiag[i]
					exit += mm
					for i2, wt := range pRows[i] {
						gr.edge(loc(bi, ci, i2), mm*wt)
					}
					for i2, wt := range depRows[i] {
						if wt == 0 {
							continue
						}
						if r > 1 {
							gr.edge(loc(depTo, ci, i2), mm*wt)
						} else {
							// The oldest job completes: its customer
							// rejoins thinking at an Alpha-drawn phase.
							for a2, al := range cfg.Think.Alpha {
								if al == 0 {
									continue
								}
								copy(scratch, c)
								scratch[a2]++
								gr.edge(loc(depTo, depComp.index(scratch), i2), mm*wt*al)
							}
						}
					}
				}
				for a := 0; a < at; a++ {
					if c[a] == 0 {
						continue
					}
					nu := float64(c[a]) * cfg.Think.Rates[a]
					exit += nu
					for a2, tw := range cfg.Think.Trans.RawRow(a) {
						if tw == 0 {
							continue
						}
						copy(scratch, c)
						scratch[a]--
						scratch[a2]++
						gr.edge(loc(bi, cs.index(scratch), i), nu*tw)
					}
					if e := cfg.Think.ExitProb(a); e > 0 && subTo >= 0 {
						copy(scratch, c)
						scratch[a]--
						ci2 := comps[w-1].index(scratch)
						for i2, wt := range subRows[i] {
							gr.edge(loc(subTo, ci2, i2), nu*e*wt)
						}
					}
				}
				gr.endState(exit)
			}
		}
	}

	// Initial distribution: every customer thinking, phases drawn iid
	// from Alpha — a multinomial over the compositions of J.
	b0 := bIdx[[2]int{0, 0}]
	for ci, c := range comps[J].list {
		gr.init[loc(b0, ci, 0)] = multinomial(c, cfg.Think.Alpha)
	}
	return gr
}

// compSet enumerates the compositions of w items over p bins in a
// fixed order with O(1) amortized reverse lookup.
type compSet struct {
	list [][]int
	idx  map[string]int
}

func enumComps(w, p int) *compSet {
	cs := &compSet{idx: map[string]int{}}
	c := make([]int, p)
	var rec func(pos, left int)
	rec = func(pos, left int) {
		if pos == p-1 {
			c[pos] = left
			cc := append([]int(nil), c...)
			cs.idx[compKey(cc)] = len(cs.list)
			cs.list = append(cs.list, cc)
			return
		}
		for v := 0; v <= left; v++ {
			c[pos] = v
			rec(pos+1, left-v)
		}
	}
	rec(0, w)
	return cs
}

func compKey(c []int) string {
	b := make([]byte, 4*len(c))
	for i, v := range c {
		b[4*i] = byte(v >> 24)
		b[4*i+1] = byte(v >> 16)
		b[4*i+2] = byte(v >> 8)
		b[4*i+3] = byte(v)
	}
	return string(b)
}

func (cs *compSet) index(c []int) int { return cs.idx[compKey(c)] }

// multinomial returns P(counts = c) when Σc items draw a bin iid
// from alpha, computed in the log domain so large pools stay finite.
func multinomial(c []int, alpha []float64) float64 {
	n := 0
	for _, v := range c {
		n += v
	}
	lg := lnFact(n)
	for b, v := range c {
		if v == 0 {
			continue
		}
		if alpha[b] == 0 {
			return 0
		}
		lg += float64(v)*math.Log(alpha[b]) - lnFact(v)
	}
	return math.Exp(lg)
}

func lnFact(n int) float64 {
	v, _ := math.Lgamma(float64(n + 1))
	return v
}
