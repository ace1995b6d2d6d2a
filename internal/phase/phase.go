// Package phase implements phase-type (matrix-exponential)
// distributions in the LAQT representation <p, B> used throughout the
// paper: an entry (row) vector p over m exponential phases, a
// completion-rate matrix M = diag(µ), an internal transition
// probability matrix P, and the service-rate matrix B = M(I − P).
//
// The distribution function is F(t) = 1 − p·exp(−tB)·ε, the density
// b(t) = p·exp(−tB)·B·ε, and the moments E(Tⁿ) = n!·Ψ[Vⁿ] with
// V = B⁻¹ (paper §3.2). The package provides the families the paper
// evaluates — exponential, Erlang-m, hyperexponential-m — plus Coxian
// and truncated power-tail (TPT) distributions for the heavy-tail
// workloads that motivate the model, along with moment-based fitting
// and random-variate sampling for the simulator.
package phase

import (
	"fmt"
	"math/rand"

	"finwl/internal/check"
	"finwl/internal/matrix"
)

// PH is a phase-type distribution <p, B>.
//
// Alpha is the entry probability vector over phases (sums to 1).
// Rates holds the completion rate µᵢ of each phase (the diagonal of
// M). Trans is the internal transition probability matrix P: on
// completing phase i the process moves to phase j with probability
// Trans[i][j] and leaves the distribution (service completes) with
// probability 1 − Σⱼ Trans[i][j].
type PH struct {
	Name  string
	Alpha []float64
	Rates []float64
	Trans *matrix.Matrix
}

// Validate checks structural invariants: matching dimensions,
// probability vectors/rows (including NaN/Inf screens), strictly
// positive rates, and service-completion reachability — from every
// phase there must be a positive-probability path out of the
// distribution, otherwise B = M(I−P) is singular and every moment is
// infinite. All failures match check.ErrInvalidModel.
func (d *PH) Validate() error {
	if d == nil {
		return check.Invalid("phase: nil distribution")
	}
	m := len(d.Alpha)
	if m == 0 {
		return check.Invalid("phase: empty distribution")
	}
	if d.Trans == nil {
		return check.Invalid("phase: nil transition matrix")
	}
	if len(d.Rates) != m {
		return check.Invalid("phase: %d rates for %d phases", len(d.Rates), m)
	}
	if d.Trans.Rows() != m || d.Trans.Cols() != m {
		return check.Invalid("phase: transition matrix %dx%d for %d phases", d.Trans.Rows(), d.Trans.Cols(), m)
	}
	if err := check.ProbVec("phase: entry probabilities", d.Alpha); err != nil {
		return err
	}
	if err := check.PositiveVec("phase: rate", d.Rates); err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		if err := check.SubStochasticRow(fmt.Sprintf("phase: P row %d", i), d.Trans.RawRow(i)); err != nil {
			return err
		}
	}
	// Completion reachability: reverse BFS from the phases with a
	// strictly positive exit probability along positive-probability
	// transitions. A phase outside the reached set can never complete
	// service — an absorbing internal phase, which would make B
	// singular and hang the sampler.
	reach := make([]bool, m)
	queue := make([]int, 0, m)
	for i := 0; i < m; i++ {
		if d.ExitProb(i) > check.ProbTol {
			reach[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		j := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for i := 0; i < m; i++ {
			if !reach[i] && d.Trans.At(i, j) > 0 {
				reach[i] = true
				queue = append(queue, i)
			}
		}
	}
	for i, ok := range reach {
		if !ok {
			return check.Invalid("phase: phase %d cannot reach service completion (absorbing internal phase)", i)
		}
	}
	return nil
}

// Dim returns the number of phases m.
func (d *PH) Dim() int { return len(d.Alpha) }

// ExitProb returns the service-completion probability out of phase i,
// 1 − Σⱼ P[i][j], clamped at zero against round-off.
func (d *PH) ExitProb(i int) float64 {
	row := d.Trans.RawRow(i)
	p := 1.0
	for _, v := range row {
		p -= v
	}
	if p < 0 {
		return 0
	}
	return p
}

// B returns the service-rate matrix B = M(I − P).
func (d *PH) B() *matrix.Matrix {
	m := d.Dim()
	b := matrix.New(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := -d.Rates[i] * d.Trans.At(i, j)
			if i == j {
				v += d.Rates[i]
			}
			b.Set(i, j, v)
		}
	}
	return b
}

// V returns the service-time matrix V = B⁻¹.
func (d *PH) V() *matrix.Matrix {
	inv, err := matrix.Inverse(d.B())
	if err != nil {
		panic("phase: B is singular — distribution has an absorbing internal phase")
	}
	return inv
}

// Moment returns the n-th raw moment E(Tⁿ) = n!·p·Vⁿ·ε, computed with
// n linear solves rather than matrix inversion.
func (d *PH) Moment(n int) float64 {
	if n < 0 {
		panic("phase: negative moment order")
	}
	if n == 0 {
		return 1
	}
	f, err := matrix.Factor(d.B())
	if err != nil {
		panic("phase: B is singular")
	}
	x := matrix.Ones(d.Dim())
	fact := 1.0
	for i := 1; i <= n; i++ {
		x = f.Solve(x)
		fact *= float64(i)
	}
	return fact * matrix.Dot(d.Alpha, x)
}

// Mean returns E(T).
func (d *PH) Mean() float64 { return d.Moment(1) }

// Variance returns Var(T).
func (d *PH) Variance() float64 {
	m1 := d.Moment(1)
	return d.Moment(2) - m1*m1
}

// CV2 returns the squared coefficient of variation C² = Var/E².
func (d *PH) CV2() float64 {
	m1 := d.Moment(1)
	return d.Variance() / (m1 * m1)
}

// CDF returns F(t) = 1 − p·exp(−tB)·ε. For t ≤ 0 it returns 0.
func (d *PH) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	e := matrix.Expm(d.B().Scale(-t))
	return 1 - matrix.Dot(d.Alpha, e.MulVec(matrix.Ones(d.Dim())))
}

// PDF returns the density b(t) = p·exp(−tB)·B·ε.
func (d *PH) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	b := d.B()
	e := matrix.Expm(b.Scale(-t))
	return matrix.Dot(d.Alpha, e.MulVec(b.MulVec(matrix.Ones(d.Dim()))))
}

// Reliability returns R(t) = Pr(T > t) = p·exp(−tB)·ε.
func (d *PH) Reliability(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return 1 - d.CDF(t)
}

// PDF0 returns the density at the origin, b(0) = p·B·ε — the quantity
// the paper suggests as a third fitting parameter for H2 (§5.4.2).
func (d *PH) PDF0() float64 {
	return matrix.Dot(d.Alpha, d.B().MulVec(matrix.Ones(d.Dim())))
}

// Sample draws one service time: start in a phase chosen by Alpha,
// hold an exponential time in each visited phase, move by Trans, and
// stop on service completion.
func (d *PH) Sample(rng *rand.Rand) float64 {
	ph := SamplePMF(rng, d.Alpha)
	var t float64
	for {
		t += rng.ExpFloat64() / d.Rates[ph]
		u := rng.Float64()
		row := d.Trans.RawRow(ph)
		next := -1
		var cum float64
		for j, p := range row {
			cum += p
			if u < cum {
				next = j
				break
			}
		}
		if next < 0 {
			return t // completion
		}
		ph = next
	}
}

// SamplePMF draws an index from a probability vector with one uniform
// draw.
func SamplePMF(rng *rand.Rand, pmf []float64) int {
	u := rng.Float64()
	var cum float64
	for i, p := range pmf {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(pmf) - 1 // round-off guard
}

// ScaleMean returns a copy of d rescaled so that its mean equals
// target; C² and the distribution shape are unchanged.
func (d *PH) ScaleMean(target float64) *PH {
	if target <= 0 {
		panic("phase: ScaleMean target must be positive")
	}
	ratio := d.Mean() / target
	rates := make([]float64, len(d.Rates))
	for i, r := range d.Rates {
		rates[i] = r * ratio
	}
	return &PH{
		Name:  d.Name,
		Alpha: append([]float64(nil), d.Alpha...),
		Rates: rates,
		Trans: d.Trans.Clone(),
	}
}

// String describes the distribution family, mean and C².
func (d *PH) String() string {
	return fmt.Sprintf("%s(m=%d, mean=%.4g, C2=%.4g)", d.Name, d.Dim(), d.Mean(), d.CV2())
}
