package faults

import "testing"

// FuzzFaultPlan feeds hostile fault specs down mmogsim's path — the
// -blackout spec through ParseBlackouts, then Validate, then NewPlan
// over three centers in two regions — and requires either an error or
// a plan whose every window lies inside the run (see checkPlan). The
// seed corpus in testdata/fuzz holds the inputs that used to escape:
// a NaN probability, a 1e300 MTBF and a blackout whose end
// overflowed; crash-mtbf-inf holds the all-zero configuration.
func FuzzFaultPlan(f *testing.F) {
	f.Add("eu:480:40", 40.0, 15.0, 0.5, 0.1, 0.1, 0.05, 150.0, 25.0, 0.5, 1440)
	f.Fuzz(func(t *testing.T, spec string, mtbf, mttr, degraded, reject, partial, dropout,
		regionMTBF, regionMTTR, aftershock float64, ticks int) {
		ticks = (ticks%5001 + 5001) % 5001
		cfg := Config{
			Seed:      7,
			MTBFTicks: mtbf, MTTRTicks: mttr, DegradedShare: degraded,
			RejectProb: reject, PartialGrantProb: partial, DropoutProb: dropout,
			Regions:         map[string]string{"a": "eu", "b": "eu", "c": "na"},
			RegionMTBFTicks: regionMTBF, RegionMTTRTicks: regionMTTR,
			AftershockProb: aftershock,
		}
		if spec != "" {
			windows, err := ParseBlackouts(spec)
			if err != nil {
				return
			}
			cfg.ScheduledBlackouts = windows
		}
		if cfg.Validate() != nil {
			return
		}
		if err := checkPlan(NewPlan(cfg, []string{"a", "b", "c"}, ticks), ticks); err != nil {
			t.Fatal(err)
		}
	})
}
