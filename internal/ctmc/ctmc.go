// Package ctmc assembles the complete absorbing continuous-time
// Markov chain of a finite workload — every (departures-so-far,
// network-state) pair — and solves it directly. It serves two roles:
//
//  1. An independent cross-validation of the level-based transient
//     recursion: the mean absorption time computed here by block
//     back-substitution must equal core.Solver's E(T) exactly, though
//     the two computations share no code path beyond the level
//     matrices.
//  2. A genuine extension of the paper: the full *distribution* of
//     the job completion time via uniformization, not just its mean —
//     percentiles of the makespan, which heavy-tailed service laws
//     move far more than they move the mean.
package ctmc

import (
	"errors"
	"fmt"
	"math"

	"finwl/internal/matrix"
	"finwl/internal/network"
)

// Chain is the absorbing CTMC of one finite workload.
type Chain struct {
	N int // tasks in the workload
	K int // maximum concurrency

	chain *network.Chain
	// offsets[d] is the global index of the first state of the block
	// with d departures; blocks run d = 0 .. N−1, then absorption.
	offsets []int
	total   int
	// init is the initial distribution over block 0.
	init []float64
}

// levelAt returns the population level active in block d.
func (c *Chain) levelAt(d int) int {
	k := c.N - d
	if k > c.K {
		k = c.K
	}
	return k
}

// Build assembles the absorbing chain for a workload of n tasks on a
// level chain built to K = len(chain.Levels)−1.
func Build(chain *network.Chain, n int) (*Chain, error) {
	k := len(chain.Levels) - 1
	if n < 1 {
		return nil, errors.New("ctmc: workload must have at least one task")
	}
	c := &Chain{N: n, K: k, chain: chain}
	c.offsets = make([]int, n+1)
	for d := 0; d < n; d++ {
		c.offsets[d+1] = c.offsets[d] + chain.Levels[c.levelAt(d)].States.Count()
	}
	c.total = c.offsets[n]
	c.init = chain.EntryVector(c.levelAt(0))
	return c, nil
}

// States returns the number of transient states.
func (c *Chain) States() int { return c.total }

// MeanAbsorptionTime solves (−Q)·t = ε over the transient states. The
// generator is block upper-triangular in the departure count, so the
// solve is one dense level solve per block, walked backwards — an
// exact, independent recomputation of E(T).
func (c *Chain) MeanAbsorptionTime() (float64, error) {
	// t_d = τ-like vector for block d:
	// (I − P_k)·t_d = M_k⁻¹·ε + (I − P_k)⁻¹·hop-term … concretely:
	// for state i in block d:
	//   t = 1/M_ii + Σ_j P[i][j]·t_d[j] + Σ_j' Hop[i][j']·t_{d+1}[j']
	// where Hop is Q_k·R_k while tasks queue, else Q_k, and t_N = 0.
	var next []float64 // t_{d+1}
	for d := c.N - 1; d >= 0; d-- {
		k := c.levelAt(d)
		lvl := c.chain.Levels[k]
		dk := lvl.States.Count()
		rhs := make([]float64, dk)
		for i := 0; i < dk; i++ {
			rhs[i] = 1 / lvl.MDiag[i]
		}
		if next != nil {
			// Add Q (·R) · t_{d+1}.
			hop := lvl.Q.MulVec(projectHop(c, d, next))
			rhs = matrix.VecAdd(rhs, hop)
		}
		a := lvl.P.IMinusDense()
		t, err := matrix.Solve(a, rhs)
		if err != nil {
			return 0, fmt.Errorf("ctmc: block %d solve: %w", d, err)
		}
		next = t
	}
	return matrix.Dot(c.init, next), nil
}

// projectHop maps t_{d+1} back through R when the departure in block
// d is immediately followed by a replacement (the next block lives at
// the same level k); otherwise the levels differ by one and Q already
// lands on level k−1.
func projectHop(c *Chain, d int, next []float64) []float64 {
	kNow, kNext := c.levelAt(d), c.levelAt(d+1)
	if kNow == kNext {
		// Block d+1 is at the same level: departure (level k−1) is
		// followed by an arrival R_k back up to level k.
		return c.chain.Levels[kNow].R.MulVec(next)
	}
	return next
}

// CompletionCDF returns P(T ≤ t), the probability the whole workload
// has finished by time t, via uniformization with adaptive Poisson
// truncation (error < 1e-12).
func (c *Chain) CompletionCDF(t float64) (float64, error) {
	if t <= 0 {
		return 0, nil
	}
	lambda := c.uniformizationRate()
	// Survival = total transient probability mass after time t.
	pi := c.globalInit()
	surv := 0.0
	q := lambda * t
	pw := poissonWeights(q, 1e-13)
	cur := pi
	for k := 0; k < len(pw); k++ {
		if pw[k] > 0 {
			surv += pw[k] * matrix.VecSum(cur)
		}
		if k+1 < len(pw) {
			cur = c.stepUniformized(cur, lambda)
		}
	}
	cdf := 1 - surv
	if cdf < 0 {
		cdf = 0
	}
	if cdf > 1 {
		cdf = 1
	}
	return cdf, nil
}

// Quantile inverts the completion CDF by bisection.
func (c *Chain) Quantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("ctmc: quantile %v outside (0,1)", p)
	}
	mean, err := c.MeanAbsorptionTime()
	if err != nil {
		return 0, err
	}
	lo, hi := 0.0, 2*mean
	for {
		v, err := c.CompletionCDF(hi)
		if err != nil {
			return 0, err
		}
		if v >= p || hi > 1e6*mean {
			break
		}
		hi *= 2
	}
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		v, err := c.CompletionCDF(mid)
		if err != nil {
			return 0, err
		}
		if v < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-9*mean {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// OccupancyAt returns the expected number of customers at each
// station at time t, including tasks still queued for admission —
// the time-domain view of the transient the paper's epoch series
// shows in departure order. Entries decay to zero as the workload
// drains. Exchangeable stations, which the chain lumps, get their
// class average.
func (c *Chain) OccupancyAt(t float64) ([]float64, error) {
	space := c.chain.Space
	occ := make([]float64, space.Stations())
	pi := c.globalInit()
	if t > 0 {
		lambda := c.uniformizationRate()
		pw := poissonWeights(lambda*t, 1e-13)
		acc := make([]float64, c.total)
		cur := pi
		for k := 0; k < len(pw); k++ {
			if pw[k] > 0 {
				for i, v := range cur {
					acc[i] += pw[k] * v
				}
			}
			if k+1 < len(pw) {
				cur = c.stepUniformized(cur, lambda)
			}
		}
		pi = acc
	}
	for d := 0; d < c.N; d++ {
		k := c.levelAt(d)
		lvl := c.chain.Levels[k]
		for i := 0; i < lvl.States.Count(); i++ {
			p := pi[c.offsets[d]+i]
			if p == 0 {
				continue
			}
			state := lvl.States.State(i)
			for st := 0; st < space.Stations(); st++ {
				occ[st] += p * float64(space.CustomersAt(state, st))
			}
		}
	}
	space.AverageClasses(occ)
	return occ, nil
}

// uniformizationRate returns Λ ≥ every state's total event rate.
func (c *Chain) uniformizationRate() float64 {
	var lambda float64
	for k := 1; k <= c.K; k++ {
		for _, m := range c.chain.Levels[k].MDiag {
			if m > lambda {
				lambda = m
			}
		}
	}
	return lambda
}

// globalInit expands the initial distribution to the global space.
func (c *Chain) globalInit() []float64 {
	pi := make([]float64, c.total)
	copy(pi[:len(c.init)], c.init)
	return pi
}

// stepUniformized applies the uniformized DTMC to a global
// distribution: within-block moves via P (scaled by M/Λ), block hops
// via Q(R), self-loops for the remaining probability; absorption mass
// simply leaves the vector.
func (c *Chain) stepUniformized(pi []float64, lambda float64) []float64 {
	out := make([]float64, c.total)
	for d := 0; d < c.N; d++ {
		k := c.levelAt(d)
		lvl := c.chain.Levels[k]
		dk := lvl.States.Count()
		block := pi[c.offsets[d] : c.offsets[d]+dk]
		// Scale each state's outflow by M_ii/Λ; keep the rest in place.
		scaled := make([]float64, dk)
		for i, v := range block {
			rate := lvl.MDiag[i] / lambda
			scaled[i] = v * rate
			out[c.offsets[d]+i] += v * (1 - rate)
		}
		// Within-block transitions.
		moved := lvl.P.VecMul(scaled)
		dst := out[c.offsets[d] : c.offsets[d]+dk]
		for i, v := range moved {
			dst[i] += v
		}
		// Departure hop to block d+1 (or absorption if d == N−1).
		if d+1 < c.N {
			hopped := lvl.Q.VecMul(scaled)
			if c.levelAt(d+1) == k {
				hopped = lvl.R.VecMul(hopped)
			}
			dst2 := out[c.offsets[d+1]:c.offsets[d+2]]
			for i, v := range hopped {
				dst2[i] += v
			}
		}
	}
	return out
}

// poissonWeights returns Poisson(q) pmf values 0..K where the omitted
// tail mass is below tol, computed stably in the log domain.
func poissonWeights(q, tol float64) []float64 {
	if q <= 0 {
		return []float64{1}
	}
	// Start at the mode and expand outward to avoid underflow.
	mode := int(q)
	logPMF := func(k int) float64 {
		lg, _ := math.Lgamma(float64(k + 1))
		return -q + float64(k)*math.Log(q) - lg
	}
	// Find upper truncation: walk until cumulative ≥ 1 − tol.
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
