package neural

import (
	"fmt"
	"math"
)

// Smooth least-squares-fits a polynomial of the given degree to the
// window and writes the fitted values into dst: a zero-delay smoothing
// filter (Savitzky–Golay style, full-window variant), the paper's
// "signal preprocessors based on polynomial functions which have the
// purpose of removing the unwanted noise from the processed signal".
// Degree 2 works well for the paper's six-sample windows. A negative
// degree copies the window, and so does one of Inputs or more, which
// the samples cannot constrain. Only the fit's window-dependent part is
// computed per call; the rest comes from the degree's plan.
func Smooth(dst, window *[Inputs]float64, degree int) {
	if degree < 0 || degree >= Inputs {
		*dst = *window
		return
	}
	var coef [Inputs]float64
	c := plans[degree].solve(window, &coef)
	for i := range dst {
		dst[i] = polyval(c, float64(i))
	}
}

// fitPlan is the window-independent part of the least-squares fit of
// y[i] ~ poly(i), of degree k-1 over the Inputs samples of a window, by
// the normal equations with Gaussian elimination and partial pivoting.
// The normal-equation matrix A[r][c] = Σ i^(r+c) depends only on k, and
// so do the pivot choices and elimination multipliers it leads to; only
// the right-hand side T[m] = Σ i^m·y[i] depends on y.
type fitPlan struct {
	k int
	// pow[m][i] is i^m, formed by repeated multiplication: row m is the
	// weights of T[m].
	pow [Inputs][Inputs]float64
	// piv[col] is the row swapped into row col before col is
	// eliminated.
	piv [Inputs]int
	// mult[col*k+r] is the multiplier that eliminates column col from
	// row r > col.
	mult [Inputs * Inputs]float64
	// u[r*k+c] is the reduced matrix; its upper triangle is used.
	u [Inputs * Inputs]float64
}

// plans[d] is the plan of degree d, built once and read-only after.
var plans = func() (ps [Inputs]fitPlan) {
	for d := range ps {
		ps[d] = newFitPlan(d + 1)
	}
	return ps
}()

// newFitPlan runs the elimination on the matrix columns alone, in the
// operation order of the full solve.
func newFitPlan(k int) fitPlan {
	pl := fitPlan{k: k}
	cells := make([]float64, k*k)
	// Power sums S_m = sum(i^m).
	s := make([]float64, 2*k-1)
	for i := 0; i < Inputs; i++ {
		x := float64(i)
		pw := 1.0
		for m := 0; m < 2*k-1; m++ {
			s[m] += pw
			if m < k {
				pl.pow[m][i] = pw
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

// solve fits y and returns its k coefficients, written into coef. It
// replays the plan's swaps and multipliers on the right-hand side
// alone, through the full elimination's operations in its order and
// expression shapes (x += p*y, x -= f*y, so a compiler that fuses
// multiply-adds fuses the same ones): every coefficient is bit-equal to
// the full elimination's, infinite and subnormal samples included, and
// NaN where it is NaN.
func (pl *fitPlan) solve(y, coef *[Inputs]float64) []float64 {
	k := pl.k
	var rhs [Inputs]float64
	for m := 0; m < k; m++ {
		pw := &pl.pow[m]
		var sum float64
		for i, yi := range y {
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
	return coef[:k]
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
