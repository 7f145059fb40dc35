package neural

import (
	"fmt"
	"math"
	"sync"
)

// Preprocessor transforms a raw input window before it reaches the
// network. The paper attaches "several signal preprocessors based on
// polynomial functions which have the purpose of removing the
// unwanted noise from the processed signal".
type Preprocessor interface {
	// ProcessInto writes the de-noised window into dst, which must have
	// the same length as window and must not alias it. Implementations
	// may reuse internal scratch across calls, so a Preprocessor is not
	// safe for concurrent use.
	ProcessInto(dst, window []float64)
}

// Identity passes the window through unchanged.
type Identity struct{}

// ProcessInto implements Preprocessor.
func (Identity) ProcessInto(dst, window []float64) {
	copy(dst, window)
}

// PolySmoother least-squares-fits a polynomial of the configured
// degree to the window and writes out the fitted values — a zero-delay
// smoothing filter (Savitzky–Golay style, full-window variant). The
// fit is recomputed per call, but only its window-dependent part: the
// rest comes from a fitPlan shared by every smoother of the same
// window length and degree.
type PolySmoother struct {
	// Degree of the fitted polynomial; 2 works well for the 6-sample
	// windows the paper uses.
	Degree int

	plan *fitPlan
	// scratch holds the right-hand side and the coefficients of the
	// current fit, k each.
	scratch []float64
}

// ProcessInto implements Preprocessor. It allocates only on the first
// call and when the window length or the degree changes.
func (p *PolySmoother) ProcessInto(dst, window []float64) {
	n := len(window)
	deg := p.Degree
	if deg < 0 {
		deg = 0
	}
	if deg >= n {
		// Not enough points to constrain the fit; pass through.
		copy(dst, window)
		return
	}
	k := deg + 1
	if p.plan == nil || p.plan.n != n || p.plan.k != k {
		p.plan = planFor(n, k)
		p.scratch = make([]float64, 2*k)
	}
	coef := p.plan.solve(window, p.scratch[:k], p.scratch[k:])
	for i := 0; i < n; i++ {
		dst[i] = polyval(coef, float64(i))
	}
}

// fitPlan is the window-independent part of the least-squares fit of
// y[i] ~ poly(i), of degree k-1 over n samples, by the normal
// equations with Gaussian elimination and partial pivoting. The
// normal-equation matrix A[r][c] = Σ i^(r+c) depends only on n and k,
// and so do the pivot choices and elimination multipliers it leads
// to; only the right-hand side T[m] = Σ i^m·y[i] depends on y. A plan
// is immutable once built, so every smoother shares it.
type fitPlan struct {
	n, k int
	// pow[m*n+i] is i^m, formed by repeated multiplication: row m is
	// the weights of T[m].
	pow []float64
	// piv[col] is the row swapped into row col before col is
	// eliminated.
	piv []int
	// mult[col*k+r] is the multiplier that eliminates column col from
	// row r > col.
	mult []float64
	// u[r*k+c] is the reduced matrix; its upper triangle is used.
	u []float64
}

// newFitPlan runs the elimination on the matrix columns alone, in the
// operation order of the full solve.
func newFitPlan(n, k int) *fitPlan {
	pl := &fitPlan{
		n: n, k: k,
		pow:  make([]float64, n*k),
		piv:  make([]int, k),
		mult: make([]float64, k*k),
		u:    make([]float64, k*k),
	}
	cells := make([]float64, k*k)
	// Power sums S_m = sum(i^m).
	s := make([]float64, 2*k-1)
	for i := 0; i < n; i++ {
		x := float64(i)
		pw := 1.0
		for m := 0; m < 2*k-1; m++ {
			s[m] += pw
			if m < k {
				pl.pow[m*n+i] = pw
			}
			pw *= x
		}
	}
	a := make([][]float64, k)
	for r := range a {
		a[r] = cells[r*k : (r+1)*k]
		for c := range a[r] {
			a[r][c] = s[r+c]
		}
	}
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		pl.piv[col] = pivot
		a[col], a[pivot] = a[pivot], a[col]
		if a[col][col] == 0 {
			continue // singular; coefficient stays zero
		}
		for r := col + 1; r < k; r++ {
			f := a[r][col] / a[col][col]
			pl.mult[col*k+r] = f
			for c := col; c < k; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	// The swaps permuted the row headers; store the rows in their final
	// order.
	for r := range a {
		copy(pl.u[r*k:], a[r])
	}
	return pl
}

// solve fits y (length n) and returns the k coefficients, written into
// coef; rhs is k floats of scratch. It replays the plan's swaps and
// multipliers on the right-hand side alone, through the full
// elimination's operations in its order and expression shapes
// (x += p*y, x -= f*y, so a compiler that fuses multiply-adds fuses the
// same ones): every coefficient is bit-equal to the full elimination's,
// infinite and subnormal samples included, and NaN where it is NaN.
func (pl *fitPlan) solve(y, rhs, coef []float64) []float64 {
	k, n := pl.k, pl.n
	for m := range rhs {
		pw := pl.pow[m*n:][:n]
		var sum float64
		for i, yi := range y[:n] {
			sum += pw[i] * yi
		}
		rhs[m] = sum
	}
	for col := 0; col < k; col++ {
		p := pl.piv[col]
		rhs[col], rhs[p] = rhs[p], rhs[col]
		if pl.u[col*k+col] == 0 {
			continue
		}
		for r := col + 1; r < k; r++ {
			rhs[r] -= pl.mult[col*k+r] * rhs[col]
		}
	}
	for r := k - 1; r >= 0; r-- {
		if pl.u[r*k+r] == 0 {
			coef[r] = 0
			continue
		}
		sum := rhs[r]
		for c := r + 1; c < k; c++ {
			sum -= pl.u[r*k+c] * coef[c]
		}
		coef[r] = sum / pl.u[r*k+r]
	}
	return coef
}

// maxFitPlans bounds the shared plans; a full cache starts over. A
// predictor uses one window length and degree.
const maxFitPlans = 64

// fitPlans holds the plans built so far, keyed by (n, k).
var fitPlans struct {
	sync.Mutex
	m map[[2]int]*fitPlan
}

// planFor returns the shared plan for n samples and k coefficients,
// building it on first use.
func planFor(n, k int) *fitPlan {
	fitPlans.Lock()
	defer fitPlans.Unlock()
	key := [2]int{n, k}
	if pl := fitPlans.m[key]; pl != nil {
		return pl
	}
	if len(fitPlans.m) >= maxFitPlans || fitPlans.m == nil {
		fitPlans.m = make(map[[2]int]*fitPlan)
	}
	pl := newFitPlan(n, k)
	fitPlans.m[key] = pl
	return pl
}

// polyval evaluates the polynomial (Horner).
func polyval(coef []float64, x float64) float64 {
	v := 0.0
	for i := len(coef) - 1; i >= 0; i-- {
		v = v*x + coef[i]
	}
	return v
}

// Normalizer maps raw values into the network's working range [0, 1]
// given a fixed capacity, and back.
type Normalizer struct {
	// Capacity is the value mapped to 1.0; it must be positive.
	Capacity float64
}

// NewNormalizer validates the capacity.
func NewNormalizer(capacity float64) (Normalizer, error) {
	if capacity <= 0 {
		return Normalizer{}, fmt.Errorf("neural: capacity must be positive, got %v", capacity)
	}
	return Normalizer{Capacity: capacity}, nil
}

// Norm maps a raw value into [0, ...]; values above capacity exceed 1.
func (n Normalizer) Norm(v float64) float64 { return v / n.Capacity }

// Denorm inverts Norm, clamping at zero (a population prediction can
// never be negative).
func (n Normalizer) Denorm(v float64) float64 {
	out := v * n.Capacity
	if out < 0 {
		return 0
	}
	return out
}
