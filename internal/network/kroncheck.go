package network

import (
	"context"
	"fmt"
	"math"

	"finwl/internal/statespace"
)

// LumpCheck cross-validates the reduced-product-space construction
// against the paper's full Kronecker-style product space (§5.4) for
// an all-exponential network: it builds the naive space in which each
// of the k distinguishable tasks occupies one station — stations^k
// states — and verifies strong lumpability onto the reduced space:
// for every full state, the aggregate transition rate into each
// reduced target must equal M_k·P_k (internal) and M_k·Q_k
// (departures) of the reduced construction.
//
// Queue stations use the processor-sharing rate split µ/n per task,
// which has the same lumped count process as FCFS for exponential
// service. It checks the chain built without lumping exchangeable
// stations, whose states are the reduced space's own. It returns an
// error describing the first mismatch, or nil.
func LumpCheck(net *Network, k int, tol float64) error {
	for _, st := range net.Stations {
		if st.Service.Dim() != 1 {
			return fmt.Errorf("network: LumpCheck requires exponential stations, %q has %d phases", st.Name, st.Service.Dim())
		}
	}
	chain, err := newChain(context.Background(), net, k, false)
	if err != nil {
		return err
	}
	lvl := chain.Levels[k]
	prev := chain.Levels[k-1].States
	space := chain.Space
	m := len(net.Stations)

	// Enumerate full states: task → station assignments.
	full := enumerateAssignments(m, k)
	reduced := func(f []int) []int {
		state := make([]int, space.Width())
		for _, s := range f {
			switch net.Stations[s].Kind {
			case statespace.Delay:
				space.SetDelayCount(state, s, 0, space.DelayCount(state, s, 0)+1)
			case statespace.Queue:
				space.SetQueue(state, s, space.QueueCount(state, s)+1, 0)
			}
		}
		return state
	}

	for _, f := range full {
		ri := lvl.States.MustIndex(reduced(f))
		counts := make([]int, m)
		for _, s := range f {
			counts[s]++
		}
		// Aggregate full-space rates by reduced target.
		intoLevel := make(map[int]float64) // reduced index at level k
		intoPrev := make(map[int]float64)  // reduced index at level k−1
		var total float64
		for t, s := range f {
			var rate float64
			switch net.Stations[s].Kind {
			case statespace.Delay:
				rate = net.Stations[s].Service.Rates[0]
			case statespace.Queue:
				rate = net.Stations[s].Service.Rates[0] / float64(counts[s])
			}
			total += rate
			for dst := 0; dst < m; dst++ {
				r := net.Route.At(s, dst)
				if r == 0 {
					continue
				}
				g := append([]int(nil), f...)
				g[t] = dst
				intoLevel[lvl.States.MustIndex(reduced(g))] += rate * r
			}
			if e := net.Exit[s]; e > 0 {
				g := append(append([]int(nil), f[:t]...), f[t+1:]...)
				intoPrev[prev.MustIndex(reduced(g))] += rate * e
			}
		}
		if math.Abs(total-lvl.MDiag[ri]) > tol {
			return fmt.Errorf("network: state %v total rate %v, reduced M=%v", f, total, lvl.MDiag[ri])
		}
		for j := 0; j < lvl.States.Count(); j++ {
			want := lvl.MDiag[ri] * lvl.P.At(ri, j)
			got := intoLevel[j]
			// Skip the diagonal self-rate bookkeeping differences:
			// self-transitions (task routes back to its own station)
			// appear in both constructions identically, so compare all.
			if math.Abs(got-want) > tol {
				return fmt.Errorf("network: state %v → level state %d rate %v, reduced %v", f, j, got, want)
			}
		}
		for j := 0; j < prev.Count(); j++ {
			want := lvl.MDiag[ri] * lvl.Q.At(ri, j)
			got := intoPrev[j]
			if math.Abs(got-want) > tol {
				return fmt.Errorf("network: state %v ⇣ prev state %d rate %v, reduced %v", f, j, got, want)
			}
		}
	}
	return nil
}

// enumerateAssignments lists all station assignments of k tasks over
// m stations (mᵏ tuples).
func enumerateAssignments(m, k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	var out [][]int
	cur := make([]int, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for s := 0; s < m; s++ {
			cur[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
