package series

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2007, 8, 18, 0, 0, 0, 0, time.UTC)

func TestNewAndAppend(t *testing.T) {
	s := New(DefaultTick, t0)
	if s.Len() != 0 {
		t.Fatalf("new series has %d samples", s.Len())
	}
	s.Append(1, 2, 3)
	if s.Len() != 3 || s.At(1) != 2 {
		t.Fatalf("after append: len=%d at(1)=%v", s.Len(), s.At(1))
	}
}

func TestAtOutOfRange(t *testing.T) {
	s := &Series{Tick: DefaultTick, Values: []float64{1}}
	if !math.IsNaN(s.At(-1)) || !math.IsNaN(s.At(1)) {
		t.Fatal("out-of-range At should be NaN")
	}
}

func TestTimeAt(t *testing.T) {
	s := New(DefaultTick, t0)
	s.Append(0, 0, 0)
	if got := s.TimeAt(0); !got.Equal(t0) {
		t.Fatalf("TimeAt(0) = %v", got)
	}
	if got := s.TimeAt(30); !got.Equal(t0.Add(time.Hour)) {
		t.Fatalf("TimeAt(30) = %v, want start+1h", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := &Series{Tick: DefaultTick, Values: []float64{1, 2, 3}}
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Fatal("Clone aliases the original storage")
	}
}

func TestResample(t *testing.T) {
	s := New(DefaultTick, t0)
	s.Append(1, 3, 5, 7, 9, 11)
	r := s.Resample(2)
	if r.Len() != 3 {
		t.Fatalf("resampled len = %d", r.Len())
	}
	want := []float64{2, 6, 10}
	for i, w := range want {
		if r.At(i) != w {
			t.Fatalf("resampled = %v, want %v", r.Values, want)
		}
	}
	if r.Tick != 4*time.Minute {
		t.Fatalf("resampled tick = %v", r.Tick)
	}
}

func TestResampleTrailingPartial(t *testing.T) {
	s := &Series{Tick: DefaultTick, Values: []float64{2, 4, 6, 8, 10}}
	r := s.Resample(2)
	if r.Len() != 3 || r.At(2) != 10 {
		t.Fatalf("partial group not averaged over actual length: %v", r.Values)
	}
}

func TestResampleFactorOne(t *testing.T) {
	s := &Series{Tick: DefaultTick, Values: []float64{1, 2}}
	r := s.Resample(1)
	r.Values[0] = 99
	if s.Values[0] != 1 {
		t.Fatal("Resample(1) should return an independent clone")
	}
}

func TestAddSeries(t *testing.T) {
	a := &Series{Tick: DefaultTick, Values: []float64{1, 2, 3}}
	b := &Series{Tick: DefaultTick, Values: []float64{10, 20, 30}}
	if err := a.AddSeries(b); err != nil {
		t.Fatal(err)
	}
	if a.At(2) != 33 {
		t.Fatalf("sum = %v", a.Values)
	}
	if err := a.AddSeries(&Series{Tick: DefaultTick, Values: []float64{1}}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestSumAcross(t *testing.T) {
	all := []*Series{
		&Series{Tick: DefaultTick, Values: []float64{1, 2}},
		&Series{Tick: DefaultTick, Values: []float64{3, 4}},
		&Series{Tick: DefaultTick, Values: []float64{5, 6}},
	}
	sum, err := SumAcross(all)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(0) != 9 || sum.At(1) != 12 {
		t.Fatalf("SumAcross = %v", sum.Values)
	}
	// Inputs must be untouched.
	if all[0].At(0) != 1 {
		t.Fatal("SumAcross mutated its first input")
	}
	if _, err := SumAcross(nil); err == nil {
		t.Fatal("SumAcross(nil) should error")
	}
}

func TestResamplePreservesMean(t *testing.T) {
	err := quick.Check(func(raw []float64, factorRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		var sum float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			xs = append(xs, v)
			sum += v
		}
		if len(xs) == 0 {
			return true
		}
		factor := int(factorRaw%5) + 1
		// Only whole groups preserve the mean exactly; trim the tail.
		n := (len(xs) / factor) * factor
		if n == 0 {
			return true
		}
		s := &Series{Tick: DefaultTick, Values: xs[:n]}
		r := s.Resample(factor)
		var rsum float64
		for _, v := range r.Values {
			rsum += v
		}
		var osum float64
		for _, v := range xs[:n] {
			osum += v
		}
		return math.Abs(rsum*float64(factor)-osum) <= 1e-6*(1+math.Abs(osum))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
