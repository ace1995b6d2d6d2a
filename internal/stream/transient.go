package stream

import (
	"context"
	"fmt"
	"math"

	"finwl/internal/check"
	"finwl/internal/matrix"
)

// uniformRate returns Λ ≥ every state's total outflow rate.
func (g *graph) uniformRate() float64 {
	var q float64
	for _, e := range g.exit {
		if e > q {
			q = e
		}
	}
	return q
}

// step applies one jump of the uniformized DTMC: each state keeps
// 1 − Λ_s/q of its mass in place, the rest follows the rate-weighted
// edges; mass on absorbing edges (target −1) leaves the vector.
func (g *graph) step(dst, src []float64, q float64) {
	for i := range dst {
		dst[i] = 0
	}
	for s, v := range src {
		if v == 0 {
			continue
		}
		dst[s] += v * (1 - g.exit[s]/q)
		vq := v / q
		for p := g.rowPtr[s]; p < g.rowPtr[s+1]; p++ {
			if t := g.to[p]; t >= 0 {
				dst[t] += vq * g.rate[p]
			}
		}
	}
}

// transientAt computes, for every probe time, E[tasks in system] and
// the remaining transient probability mass (the drain-time survival
// function in open mode). One uniformization pass serves all probes:
// the per-jump moments ⟨tasks, v_n⟩ and ⟨1, v_n⟩ are independent of
// t, so each probe just re-weights them with its own Poisson pmf.
func (g *graph) transientAt(ctx context.Context, probes []float64) (tasks, surv []float64, err error) {
	tasks = make([]float64, len(probes))
	surv = make([]float64, len(probes))
	q := g.uniformRate()
	steps := 1
	pws := make([][]float64, len(probes))
	for pi, t := range probes {
		pws[pi] = poissonWeights(q*t, 1e-12)
		if len(pws[pi]) > steps {
			steps = len(pws[pi])
		}
	}
	if steps > maxUniformSteps {
		return nil, nil, fmt.Errorf("stream: uniformization needs %d jumps (limit %d) — probe horizon too far for this event rate: %w",
			steps, maxUniformSteps, check.ErrNotConverged)
	}
	cur := append([]float64(nil), g.init...)
	next := make([]float64, g.total)
	for n := 0; n < steps; n++ {
		if n%64 == 0 {
			if err := check.Canceled(ctx); err != nil {
				return nil, nil, err
			}
		}
		var tm, sm float64
		for s, v := range cur {
			tm += v * g.tasks[s]
			sm += v
		}
		for pi := range probes {
			if n < len(pws[pi]) {
				tasks[pi] += pws[pi][n] * tm
				surv[pi] += pws[pi][n] * sm
			}
		}
		if n+1 < steps {
			g.step(next, cur, q)
			cur, next = next, cur
		}
	}
	return tasks, surv, nil
}

// meanAbsorption solves (−Q)·t = ε over the transient states for the
// exact mean drain time. Open-mode blocks are topologically ordered
// (arrivals and departures only move forward), so the global system
// is block-triangular: one dense solve per block, walked backwards,
// exactly like ctmc.MeanAbsorptionTime but over the arrival-phase-
// augmented lattice. A block's diagonal part holds only its level's
// P_k moves, the total rates and, while arrivals are pending, the
// arrival-phase moves, so it depends on (k, arriving) alone: each
// distinct diagonal block is assembled and factored once, and every
// block reuses those factors with its own right-hand side.
func (g *graph) meanAbsorption(ctx context.Context) (float64, error) {
	t := make([]float64, g.total)
	type diagKey struct {
		k        int
		arriving bool
	}
	facts := map[diagKey]*matrix.LU{}
	for bi := len(g.blocks) - 1; bi >= 0; bi-- {
		if err := check.Canceled(ctx); err != nil {
			return 0, err
		}
		blk := g.blocks[bi]
		n := blk.n
		key := diagKey{blk.k, blk.arriving}
		f := facts[key]
		var a *matrix.Matrix
		if f == nil {
			a = matrix.New(n, n)
		}
		rhs := make([]float64, n)
		for x := 0; x < n; x++ {
			s := blk.offset + x
			if a != nil {
				a.RawRow(x)[x] = g.exit[s]
			}
			rhs[x] = 1
			for p := g.rowPtr[s]; p < g.rowPtr[s+1]; p++ {
				tgt := g.to[p]
				if tgt < 0 {
					continue // absorbing: contributes 0 to the rhs
				}
				if tgt >= blk.offset && tgt < blk.offset+n {
					if a != nil {
						a.RawRow(x)[tgt-blk.offset] -= g.rate[p]
					}
				} else {
					rhs[x] += g.rate[p] * t[tgt]
				}
			}
		}
		if f == nil {
			var err error
			if f, err = matrix.Factor(a); err != nil {
				return 0, fmt.Errorf("stream: block (g=%d,d=%d) drain solve: %w", blk.g, blk.d, err)
			}
			facts[key] = f
		}
		f.SolveInto(t[blk.offset:blk.offset+n], rhs)
	}
	return matrix.Dot(g.init, t), nil
}

// poissonWeights returns Poisson(q) pmf values 0..K where the omitted
// tail mass is below tol, computed stably in the log domain.
func poissonWeights(q, tol float64) []float64 {
	if q <= 0 {
		return []float64{1}
	}
	mode := int(q)
	logPMF := func(k int) float64 {
		lg, _ := math.Lgamma(float64(k + 1))
		return -q + float64(k)*math.Log(q) - lg
	}
	var weights []float64
	var cum float64
	k := 0
	for {
		w := math.Exp(logPMF(k))
		weights = append(weights, w)
		cum += w
		if cum >= 1-tol && k >= mode {
			break
		}
		k++
		if k > mode+200+int(20*math.Sqrt(q+1)) {
			break
		}
	}
	return weights
}
