package predict

// EvaluateZonesFromSecond replays a multi-zone signal through one
// predictor per zone (the per-sub-zone structure of Section IV-B) and
// returns the paper's prediction-error metric (Section IV-D2) from the
// second step on, the first one a predictor has a forecast for: the sum
// of un-normalized sample prediction errors |x_t - p_t| across all
// zones over the sum of the samples of those steps, as a percentage.
// Scoring only forecast steps keeps the comparison between the
// pretrained neural predictor and the baselines fair.
func EvaluateZonesFromSecond(f Factory, zones [][]float64) float64 {
	if len(zones) == 0 {
		return 0
	}
	ps := make([]Predictor, len(zones))
	for i := range ps {
		ps[i] = f()
	}
	n := len(zones[0])
	var errSum, valSum float64
	for t := 0; t < n; t++ {
		for z, sig := range zones {
			v := sig[t]
			if t > 0 {
				d := v - ps[z].Predict()
				if d < 0 {
					d = -d
				}
				errSum += d
				valSum += v
			}
			ps[z].Observe(v)
		}
	}
	if valSum == 0 {
		return 0
	}
	return errSum / valSum * 100
}

// EvaluateHorizon scores h-step-ahead forecasts: at each step the
// predictor (having observed samples up to t) forecasts the value at
// t+h, recursively feeding its own one-step forecasts back as
// observations for the intermediate steps. Longer lease time bulks
// make multi-step accuracy the operationally relevant quantity — a
// six-hour lease is sized by what the load will be, not by the next
// two minutes. The predictor must be resettable via its factory; the
// recursion uses a cheap state copy by replaying history, so this
// evaluator is O(n*h) predictor steps.
func EvaluateHorizon(f Factory, signal []float64, h int) float64 {
	if h < 1 {
		h = 1
	}
	if len(signal) <= h {
		return 0
	}
	var errSum, valSum float64
	// Replay-based recursion: for each origin t, build a fresh
	// predictor over signal[:t+1], then roll it forward h-1 steps on
	// its own forecasts.
	//
	// A full rebuild per origin is O(n^2); instead keep one primary
	// predictor fed with real data and clone-by-replay only the
	// rolling part, bounded by h.
	primary := f()
	for t := 0; t < len(signal); t++ {
		primary.Observe(signal[t])
		if t+h >= len(signal) {
			continue
		}
		// Roll forward h steps on forecasts. For h == 1 this is the
		// plain Predict.
		forecast := primary.Predict()
		if h > 1 {
			// Rebuild a disposable predictor over the recent window so
			// the primary's state stays untouched. A few windows of
			// history suffice for the windowed predictors; long-memory
			// predictors (Average) are approximated by the same recency.
			from := t - DefaultWindow*4
			if from < 0 {
				from = 0
			}
			roller := f()
			for i := from; i <= t; i++ {
				roller.Observe(signal[i])
			}
			forecast = roller.Predict()
			for step := 1; step < h; step++ {
				roller.Observe(forecast)
				forecast = roller.Predict()
			}
		}
		d := signal[t+h] - forecast
		if d < 0 {
			d = -d
		}
		errSum += d
		valSum += signal[t+h]
	}
	if valSum == 0 {
		return 0
	}
	return errSum / valSum * 100
}
