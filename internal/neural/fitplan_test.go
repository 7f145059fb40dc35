package neural

import (
	"math"
	"sync"
	"testing"

	"mmogdc/internal/xrand"
)

// polyScratch is the full normal-equation solve that fitPlan splits in
// two, kept as the reference the plan must match bit for bit.
type polyScratch struct {
	s, tv, coef []float64
	rows        [][]float64
	cells       []float64
}

func (ps *polyScratch) ensure(k int) {
	if cap(ps.coef) >= k {
		return
	}
	ps.s = make([]float64, 2*k-1)
	ps.tv = make([]float64, k)
	ps.coef = make([]float64, k)
	ps.rows = make([][]float64, k)
	ps.cells = make([]float64, k*(k+1))
}

// fit solves the degree-d least-squares fit of y[i] ~ poly(i) by the
// normal equations with Gaussian elimination and partial pivoting,
// over the matrix and the right-hand side together.
func (ps *polyScratch) fit(y []float64, degree int) []float64 {
	n := len(y)
	k := degree + 1
	ps.ensure(k)
	s := ps.s[:2*k-1]
	tv := ps.tv[:k]
	for m := range s {
		s[m] = 0
	}
	for m := range tv {
		tv[m] = 0
	}
	for i := 0; i < n; i++ {
		x := float64(i)
		pw := 1.0
		for m := 0; m < 2*k-1; m++ {
			s[m] += pw
			if m < k {
				tv[m] += pw * y[i]
			}
			pw *= x
		}
	}
	a := ps.rows[:k]
	for r := 0; r < k; r++ {
		a[r] = ps.cells[r*(k+1) : (r+1)*(k+1) : (r+1)*(k+1)]
		for c := 0; c < k; c++ {
			a[r][c] = s[r+c]
		}
		a[r][k] = tv[r]
	}
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		a[col], a[pivot] = a[pivot], a[col]
		if a[col][col] == 0 {
			continue
		}
		for r := col + 1; r < k; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= k; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	coef := ps.coef[:k]
	for r := k - 1; r >= 0; r-- {
		if a[r][r] == 0 {
			coef[r] = 0
			continue
		}
		sum := a[r][k]
		for c := r + 1; c < k; c++ {
			sum -= a[r][c] * coef[c]
		}
		coef[r] = sum / a[r][r]
	}
	return coef
}

// fitSpecials are the samples where a replay that skipped or reordered
// an operation would show: 0·Inf is NaN, -0 + 0 is +0, and subnormals
// lose bits on every rounding.
var fitSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
}

// sameFloat reports whether a and b have the same bits or are both NaN.
// Adding two different NaNs yields the payload of whichever operand the
// compiler made the destination register, and that choice differs even
// between the race and plain builds of one function, so NaN payloads
// are not part of the contract.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestFitPlanMatchesElimination slides a window along a seeded random
// walk, salted with special values and random bit patterns, and checks
// the shared plan's coefficients and PolySmoother's output against the
// full elimination bit for bit (NaN payloads aside): 1M windows over ten
// shapes.
func TestFitPlanMatchesElimination(t *testing.T) {
	shapes := []struct{ n, deg int }{
		{6, 0}, {6, 1}, {6, 2}, {6, 3}, {6, 4}, {6, 5}, {12, 3}, {1, 0}, {2, 1}, {3, 2},
	}
	const windows = 100_000
	for si, sh := range shapes {
		r := xrand.New(uint64(si + 1))
		var ref polyScratch
		p := &PolySmoother{Degree: sh.deg}
		k := sh.deg + 1
		rhs, coef := make([]float64, k), make([]float64, k)
		y := make([]float64, sh.n)
		got := make([]float64, sh.n)
		level := 0.5
		for w := 0; w < windows; w++ {
			copy(y, y[1:])
			switch c := r.Intn(100); {
			case c < 80:
				level += r.Norm(0, 0.05)
				y[sh.n-1] = level
			case c < 90:
				y[sh.n-1] = fitSpecials[r.Intn(len(fitSpecials))]
			case c < 95:
				y[sh.n-1] = math.Float64frombits(r.Uint64())
			default:
				y[sh.n-1] = level * 1e-310
			}
			want := ref.fit(y, sh.deg)
			plan := planFor(sh.n, k).solve(y, rhs, coef)
			for i := range want {
				if !sameFloat(plan[i], want[i]) {
					t.Fatalf("n=%d deg=%d window %d %v: coef[%d] = %v, elimination %v",
						sh.n, sh.deg, w, y, i, plan[i], want[i])
				}
			}
			p.ProcessInto(got, y)
			for i := range got {
				if v := polyval(want, float64(i)); !sameFloat(got[i], v) {
					t.Fatalf("n=%d deg=%d window %d %v: smoothed[%d] = %v, elimination %v",
						sh.n, sh.deg, w, y, i, got[i], v)
				}
			}
		}
	}
}

// TestFitPlansSharedAcrossGoroutines has smoothers on several
// goroutines look up, build and share plans at once, over more shapes
// than the cache holds, so the race detector sees every access to the
// shared plans and the cache's restart.
func TestFitPlansSharedAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xrand.New(seed)
			var ref polyScratch
			for rep := 0; rep < 3; rep++ {
				for n := 1; n <= 12; n++ {
					for deg := 0; deg < n; deg++ {
						p := &PolySmoother{Degree: deg}
						y := make([]float64, n)
						got := make([]float64, n)
						for i := range y {
							y[i] = r.Float64()
						}
						p.ProcessInto(got, y)
						want := ref.fit(y, deg)
						for i := range got {
							if v := polyval(want, float64(i)); !sameFloat(got[i], v) {
								t.Errorf("n=%d deg=%d: smoothed[%d] = %v, elimination %v", n, deg, i, got[i], v)
								return
							}
						}
					}
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
}
