package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"testing"

	"finwl/internal/cluster"
	"finwl/internal/network"
	"finwl/internal/phase"
	"finwl/internal/sparse"
	"finwl/internal/workload"
)

// refPrec is the mantissa precision of the reference E(T): far beyond
// what 2^20 epochs of rounding can reach.
const refPrec = 192

// bigMat is a dense matrix of refPrec-bit floats.
type bigMat [][]*big.Float

func newBigMat(rows, cols int) bigMat {
	m := make(bigMat, rows)
	for i := range m {
		m[i] = make([]*big.Float, cols)
		for j := range m[i] {
			m[i][j] = new(big.Float).SetPrec(refPrec)
		}
	}
	return m
}

func bigCSR(a *sparse.CSR) bigMat {
	m := newBigMat(a.Rows(), a.Cols())
	for i := range m {
		for j := range m[i] {
			m[i][j].SetFloat64(a.At(i, j))
		}
	}
	return m
}

// bigCol and bigRow lift a float64 vector to a column or a row.
func bigCol(v []float64) bigMat {
	m := newBigMat(len(v), 1)
	for i, x := range v {
		m[i][0].SetFloat64(x)
	}
	return m
}

func bigRow(v []float64) bigMat {
	m := newBigMat(1, len(v))
	for i, x := range v {
		m[0][i].SetFloat64(x)
	}
	return m
}

func bigIdentity(d int) bigMat {
	m := newBigMat(d, d)
	for i := range m {
		m[i][i].SetInt64(1)
	}
	return m
}

func (a bigMat) mul(b bigMat) bigMat {
	c := newBigMat(len(a), len(b[0]))
	t := new(big.Float).SetPrec(refPrec)
	for i := range a {
		for k := range b {
			if a[i][k].Sign() == 0 {
				continue
			}
			for j := range b[k] {
				c[i][j].Add(c[i][j], t.Mul(a[i][k], b[k][j]))
			}
		}
	}
	return c
}

func (a bigMat) add(b bigMat) bigMat {
	c := newBigMat(len(a), len(a[0]))
	for i := range a {
		for j := range a[i] {
			c[i][j].Add(a[i][j], b[i][j])
		}
	}
	return c
}

// solveIMinus returns (I − p)⁻¹·x by Gauss–Jordan elimination with
// partial pivoting.
func solveIMinus(p, x bigMat) bigMat {
	d := len(p)
	a := newBigMat(d, d)
	for i := range a {
		for j := range a[i] {
			a[i][j].Neg(p[i][j])
		}
		a[i][i].Add(a[i][i], big.NewFloat(1))
	}
	b := x.add(newBigMat(len(x), len(x[0])))
	t := new(big.Float).SetPrec(refPrec)
	f := new(big.Float).SetPrec(refPrec)
	abs := func(x *big.Float) *big.Float { return new(big.Float).Abs(x) }
	for c := 0; c < d; c++ {
		piv := c
		for r := c + 1; r < d; r++ {
			if abs(a[r][c]).Cmp(abs(a[piv][c])) > 0 {
				piv = r
			}
		}
		a[c], a[piv] = a[piv], a[c]
		b[c], b[piv] = b[piv], b[c]
		for r := 0; r < d; r++ {
			if r == c || a[r][c].Sign() == 0 {
				continue
			}
			f.Quo(a[r][c], a[c][c])
			for j := c; j < d; j++ {
				a[r][j].Sub(a[r][j], t.Mul(f, a[c][j]))
			}
			for j := range b[r] {
				b[r][j].Sub(b[r][j], t.Mul(f, b[c][j]))
			}
		}
	}
	for r := range b {
		for j := range b[r] {
			b[r][j].Quo(b[r][j], a[r][r])
		}
	}
	return b
}

// exactTotalTime evaluates E(T) of the chain's float64 matrices in
// refPrec-bit arithmetic for each n of ns: D_k = τ'_k + Y_k·D_{k−1}
// by dense elimination, and for n > K, with B = Y_K·R_K and m = n − K,
// E(T) = p_K·(Σ_{i<m} B^i)·τ'_K + p_K·B^m·D_K, the power and the sum
// built by doubling, so 2^20 epochs cost 20 squarings.
func exactTotalTime(c *network.Chain, ns []int) []float64 {
	K := len(c.Levels) - 1
	drains := []bigMat{newBigMat(1, 1)}
	var tau, y bigMat
	for k := 1; k <= K; k++ {
		l := c.Levels[k]
		inv := make([]float64, len(l.MDiag))
		for i, v := range l.MDiag {
			inv[i] = 1 / v
		}
		p := bigCSR(l.P)
		tau, y = solveIMinus(p, bigCol(inv)), solveIMinus(p, bigCSR(l.Q))
		drains = append(drains, tau.add(y.mul(drains[k-1])))
	}
	b := y.mul(bigCSR(c.Levels[K].R))
	out := make([]float64, len(ns))
	for i, n := range ns {
		var v bigMat
		if n <= K {
			v = bigRow(c.EntryVector(n)).mul(drains[n])
		} else {
			// pow = B^j and sum = Σ_{i<j} B^i for the leading bits j of m.
			m := n - K
			pow, sum := bigIdentity(len(b)), newBigMat(len(b), len(b))
			for bit := 62; bit >= 0; bit-- {
				if m>>bit == 0 {
					continue
				}
				sum, pow = sum.add(pow.mul(sum)), pow.mul(pow)
				if m>>bit&1 == 1 {
					sum, pow = sum.add(pow), pow.mul(b)
				}
			}
			pK := bigRow(c.EntryVector(K))
			v = pK.mul(sum).mul(tau).add(pK.mul(pow).mul(drains[K]))
		}
		out[i], _ = v[0][0].Float64()
	}
	return out
}

// exactTol bounds the relative error of a float64 E(T) against the
// reference for m = n − K feeding epochs. Solve's recursion and the
// split's drift from the reference alike and linearly in m: up to
// 3.2e-16·m on the models below (3.3e-10 at n = 2^20), for either.
func exactTol(m int) float64 { return 1e-14 + 6e-16*float64(max(m, 0)) }

// Both the split E(T) and Solve's stay within exactTol of the
// refPrec-bit E(T) of the same matrices, up to n = 2^20, the largest
// workload /solve accepts. Levels stay at d_K ≤ 54 so the dense
// reference is cheap; 2^20 runs once per family, and not under the
// race detector or -short, where its 2^20 float64 epochs take
// minutes.
func TestSplitTotalTimeMatchesExactReference(t *testing.T) {
	app := workload.Default(30)
	central := func(cv2 float64) func(k int) (*network.Network, error) {
		return func(k int) (*network.Network, error) {
			return cluster.Central(k, app, cluster.Dists{Remote: cluster.WithCV2(cv2)}, cluster.Options{})
		}
	}
	distributed := func(cv2 float64) func(k int) (*network.Network, error) {
		return func(k int) (*network.Network, error) {
			return cluster.Distributed(k, app, cluster.Dists{Remote: cluster.WithCV2(cv2)})
		}
	}
	tpt := func(mean float64) (*phase.PH, error) { return phase.TPT(12, 1.4, mean) }
	cases := []struct {
		name string
		k    int
		huge bool // also run n = 2^20
		net  func(k int) (*network.Network, error)
	}{
		{"central-cv1", 1, true, central(1)},
		{"central-cv1", 3, false, central(1)},
		{"central-cv4", 3, false, central(4)},
		{"central-cv10", 3, true, central(10)},
		{"distributed-cv1", 2, false, distributed(1)},
		{"distributed-cv4", 2, true, distributed(4)},
		{"distributed-cv10", 2, false, distributed(10)},
		{"powertail", 2, true, func(k int) (*network.Network, error) {
			return cluster.Central(k, app, cluster.Dists{Remote: tpt}, cluster.Options{})
		}},
		{"multiserver", 3, true, func(int) (*network.Network, error) { return multiNet(3, 2, 1.5), nil }},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/K=%d", c.name, c.k), func(t *testing.T) {
			net, err := c.net(c.k)
			if err != nil {
				t.Fatal(err)
			}
			s := mustSolver(t, net, c.k)
			ns := []int{c.k, c.k + 1, 2000, 20000}
			if c.huge && !raceEnabled && !testing.Short() {
				ns = append(ns, 1<<20)
			}
			exact := exactTotalTime(s.Chain, ns)
			solve, err := s.TotalTimeSweep(ns)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range ns {
				split, err := s.SplitTotalTimeCtx(context.Background(), n)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				tol := exactTol(n - c.k)
				es, eq := math.Abs(split-exact[i])/exact[i], math.Abs(solve[i]-exact[i])/exact[i]
				t.Logf("n=%d: relative error split %.2e, Solve %.2e", n, es, eq)
				if !(es <= tol) {
					t.Errorf("n=%d: split %v, reference %v (relative error %.3g, want ≤ %.3g)", n, split, exact[i], es, tol)
				}
				if !(eq <= tol) {
					t.Errorf("n=%d: Solve %v, reference %v (relative error %.3g, want ≤ %.3g)", n, solve[i], exact[i], eq, tol)
				}
			}
		})
	}
}
