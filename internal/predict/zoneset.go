package predict

import "fmt"

// ZoneSet runs one predictor per sub-zone, implementing the paper's
// per-sub-zone prediction structure (Section IV-B): "the predictor
// uses as input the entity count for each sub-zone ... the predicted
// entity count for the entire game world is the sum of all the
// sub-zone predictions". The operator prices and sums the per-zone
// forecasts (mmog.Game.DemandForZones).
type ZoneSet struct {
	ps []Predictor
}

// NewZoneSet builds n independent predictors from the factory.
func NewZoneSet(f Factory, n int) *ZoneSet {
	z := &ZoneSet{ps: make([]Predictor, n)}
	for i := range z.ps {
		z.ps[i] = f()
	}
	return z
}

// Len returns the number of zones.
func (z *ZoneSet) Len() int { return len(z.ps) }

// Observe feeds the current per-zone values; len(values) must equal
// the zone count.
func (z *ZoneSet) Observe(values []float64) error {
	if len(values) != len(z.ps) {
		return fmt.Errorf("predict: observed %d zones, want %d", len(values), len(z.ps))
	}
	for i, v := range values {
		z.ps[i].Observe(v)
	}
	return nil
}

// PredictEachInto writes the per-zone next-step forecasts into dst,
// growing it if needed, and returns the filled slice. Passing the
// previous result back in makes per-tick forecasting allocation-free.
func (z *ZoneSet) PredictEachInto(dst []float64) []float64 {
	if cap(dst) < len(z.ps) {
		dst = make([]float64, len(z.ps))
	}
	dst = dst[:len(z.ps)]
	for i, p := range z.ps {
		dst[i] = p.Predict()
	}
	return dst
}
