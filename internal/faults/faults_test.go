package faults

import (
	"fmt"
	"math"
	"testing"
)

func chaosConfig(seed uint64) Config {
	return Config{
		Seed:             seed,
		MTBFTicks:        40,
		MTTRTicks:        15,
		DegradedShare:    0.5,
		RejectProb:       0.1,
		PartialGrantProb: 0.1,
		DropoutProb:      0.05,
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{MTBFTicks: -1},
		{MTTRTicks: -1},
		{DegradedShare: 1.5},
		{RejectProb: -0.1},
		{PartialGrantProb: 2},
		{DropoutProb: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if err := chaosConfig(1).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config claims to inject")
	}
	for _, c := range []Config{
		{MTBFTicks: 10},
		{RejectProb: 0.1},
		{PartialGrantProb: 0.1},
		{DropoutProb: 0.1},
	} {
		if !c.Enabled() {
			t.Errorf("config %+v claims disabled", c)
		}
	}
}

func TestPlanDeterministicForSeed(t *testing.T) {
	centers := []string{"a", "b", "c"}
	for seed := uint64(1); seed <= 10; seed++ {
		p1 := NewPlan(chaosConfig(seed), centers, 720)
		p2 := NewPlan(chaosConfig(seed), centers, 720)
		o1, o2 := p1.outages, p2.outages
		if len(o1) != len(o2) {
			t.Fatalf("seed %d: outage counts differ (%d vs %d)", seed, len(o1), len(o2))
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("seed %d: outage %d differs: %+v vs %+v", seed, i, o1[i], o2[i])
			}
		}
	}
	// Different seeds should not reproduce the same schedule.
	a := NewPlan(chaosConfig(1), centers, 720).outages
	b := NewPlan(chaosConfig(2), centers, 720).outages
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same && len(a) > 0 {
		t.Fatal("seeds 1 and 2 generated identical non-empty schedules")
	}
}

func TestOutagesWellFormedAndRecoverInRun(t *testing.T) {
	centers := []string{"a", "b", "c", "d"}
	const ticks = 500
	for seed := uint64(1); seed <= 20; seed++ {
		p := NewPlan(chaosConfig(seed), centers, ticks)
		prev := -1
		for _, o := range p.outages {
			if o.Start < 1 || o.Start >= ticks-1 {
				t.Fatalf("seed %d: outage starts at %d outside (0, %d)", seed, o.Start, ticks-1)
			}
			if o.End <= o.Start {
				t.Fatalf("seed %d: outage [%d, %d) is empty", seed, o.Start, o.End)
			}
			if o.End > ticks-1 {
				t.Fatalf("seed %d: outage ends at %d, after the last tick %d — it never recovers", seed, o.End, ticks-1)
			}
			if o.Fraction <= 0 || o.Fraction > 1 {
				t.Fatalf("seed %d: outage fraction %v outside (0, 1]", seed, o.Fraction)
			}
			if o.Start < prev {
				t.Fatalf("seed %d: schedule not ordered by start tick", seed)
			}
			prev = o.Start
		}
	}
}

func TestOutagesPerCenterDoNotOverlap(t *testing.T) {
	// The generator resumes each center's clock at the previous outage's
	// end; overlap across centers is fine, within one center it is not.
	p := NewPlan(chaosConfig(7), []string{"a", "b"}, 2000)
	lastEnd := map[string]int{}
	for _, o := range p.outages {
		if o.Start < lastEnd[o.Center] {
			t.Fatalf("center %s: outage at %d starts before previous end %d", o.Center, o.Start, lastEnd[o.Center])
		}
		if o.End > lastEnd[o.Center] {
			lastEnd[o.Center] = o.End
		}
	}
}

func TestFailuresAtRecoveriesAtPartitionSchedule(t *testing.T) {
	p := NewPlan(chaosConfig(3), []string{"a", "b", "c"}, 720)
	fails, recovers := 0, 0
	for t2 := 0; t2 < 720; t2++ {
		fails += len(p.FailuresAt(t2))
		recovers += len(p.RecoveriesAt(t2))
	}
	n := len(p.outages)
	if n == 0 {
		t.Fatal("chaos config generated no outages over 720 ticks")
	}
	if fails != n || recovers != n {
		t.Fatalf("schedule partition broken: %d outages, %d fail events, %d recover events", n, fails, recovers)
	}
}

func TestDropSampleIsPureAndRateBounded(t *testing.T) {
	p := NewPlan(Config{Seed: 9, DropoutProb: 0.1}, nil, 100)
	drops := 0
	const zones, ticks = 50, 400
	for z := 0; z < zones; z++ {
		for tick := 0; tick < ticks; tick++ {
			a := p.DropSample(z, tick)
			if a != p.DropSample(z, tick) {
				t.Fatalf("DropSample(%d, %d) is not pure", z, tick)
			}
			if a {
				drops++
			}
		}
	}
	rate := float64(drops) / (zones * ticks)
	if rate < 0.05 || rate > 0.15 {
		t.Fatalf("dropout rate %v far from configured 0.1", rate)
	}
	// Zero probability never drops.
	none := NewPlan(Config{Seed: 9}, nil, 100)
	for z := 0; z < 10; z++ {
		for tick := 0; tick < 50; tick++ {
			if none.DropSample(z, tick) {
				t.Fatal("DropoutProb 0 dropped a sample")
			}
		}
	}
}

func TestGrantFaultStreamDeterministic(t *testing.T) {
	run := func() (rejects, partials int, fracs []float64) {
		p := NewPlan(Config{Seed: 4, RejectProb: 0.2, PartialGrantProb: 0.3}, nil, 100)
		for i := 0; i < 500; i++ {
			rej, frac := p.GrantFault("dc")
			if rej {
				rejects++
				continue
			}
			if frac < 1 {
				partials++
				if frac < 0.25 || frac > 0.75 {
					t.Fatalf("partial grant fraction %v outside [0.25, 0.75]", frac)
				}
			}
			fracs = append(fracs, frac)
		}
		return
	}
	r1, p1, f1 := run()
	r2, p2, f2 := run()
	if r1 != r2 || p1 != p2 || len(f1) != len(f2) {
		t.Fatalf("grant streams diverged: %d/%d rejects, %d/%d partials", r1, r2, p1, p2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("grant fraction %d diverged: %v vs %v", i, f1[i], f2[i])
		}
	}
	if r1 == 0 || p1 == 0 {
		t.Fatalf("expected both rejects (%d) and partials (%d) over 500 attempts", r1, p1)
	}
}

func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if p.FailuresAt(3) != nil || p.RecoveriesAt(3) != nil {
		t.Fatal("nil plan returned outages")
	}
	if p.DropSample(0, 0) {
		t.Fatal("nil plan dropped a sample")
	}
	if rej, frac := p.GrantFault("dc"); rej || frac != 1 {
		t.Fatal("nil plan faulted a grant")
	}
}

func TestValidateRejectsMTTRAtLeastMTBF(t *testing.T) {
	for _, c := range []Config{
		{MTBFTicks: 30, MTTRTicks: 30},
		{MTBFTicks: 30, MTTRTicks: 45},
		{MTBFTicks: 5}, // MTTR defaults to 10 >= 5
		{RegionMTBFTicks: 20, RegionMTTRTicks: 20},
		{RegionMTBFTicks: 8}, // region MTTR defaults to 10 >= 8
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("always-down config %+v accepted", c)
		}
	}
	for _, c := range []Config{
		{MTBFTicks: 30, MTTRTicks: 29},
		{MTBFTicks: 30}, // defaulted MTTR 10 < 30
		{RegionMTBFTicks: 150, RegionMTTRTicks: 25},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("valid config %+v rejected: %v", c, err)
		}
	}
}

func regionConfig(seed uint64) Config {
	return Config{
		Seed:            seed,
		Regions:         map[string]string{"a": "eu", "b": "eu", "c": "na"},
		RegionMTBFTicks: 100,
		RegionMTTRTicks: 20,
		AftershockProb:  0.5,
	}
}

func TestRegionBlackoutDownsWholeDomain(t *testing.T) {
	cfg := regionConfig(11)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	p := NewPlan(cfg, []string{"a", "b", "c"}, 2000)
	if len(p.blackouts) == 0 {
		t.Fatal("region process generated no blackouts over 2000 ticks")
	}
	// Every blackout must produce one full outage per member center of
	// the region, all sharing the window.
	for _, b := range p.blackouts {
		members := map[string]bool{}
		for _, o := range p.outages {
			if o.Region == b.Region && o.Start == b.Start && o.End == b.End && o.Fraction == 1 {
				members[o.Center] = true
			}
		}
		want := 2 // eu
		if b.Region == "na" {
			want = 1
		}
		if len(members) != want {
			t.Fatalf("blackout %+v downed %d centers, want %d", b, len(members), want)
		}
	}
	// Aftershocks are partial and tagged with the region.
	aftershocks := 0
	for _, o := range p.outages {
		if o.Region != "" && o.Fraction < 1 {
			aftershocks++
			if o.Fraction < 0.2 || o.Fraction > 0.8 {
				t.Fatalf("aftershock fraction %v outside [0.2, 0.8]", o.Fraction)
			}
		}
	}
	if aftershocks == 0 {
		t.Fatal("AftershockProb 0.5 produced no aftershocks")
	}
}

func TestScheduledBlackoutDeterministic(t *testing.T) {
	cfg := Config{
		Seed:    3,
		Regions: map[string]string{"a": "eu", "b": "eu"},
		ScheduledBlackouts: []RegionBlackout{
			{Region: "eu", Start: 100, Duration: 40},
		},
	}
	if !cfg.Enabled() || !cfg.CorrelatedEnabled() {
		t.Fatal("scheduled blackout config claims disabled")
	}
	p := NewPlan(cfg, []string{"a", "b"}, 720)
	bs := p.blackouts
	if len(bs) != 1 || bs[0] != (Blackout{Region: "eu", Start: 100, End: 140}) {
		t.Fatalf("unexpected blackouts %+v", bs)
	}
	if n := len(p.FailuresAt(100)); n != 2 {
		t.Fatalf("%d failures at blackout start, want 2", n)
	}
	if n := len(p.RecoveriesAt(140)); n != 2 {
		t.Fatalf("%d recoveries at blackout end, want 2", n)
	}
	if n := len(p.BlackoutsAt(100)); n != 1 {
		t.Fatalf("%d blackouts at 100, want 1", n)
	}
	if n := len(p.BlackoutRecoveriesAt(140)); n != 1 {
		t.Fatalf("%d blackout recoveries at 140, want 1", n)
	}
	// Clamped inside the run when the window runs off the end.
	late := NewPlan(Config{
		Seed:    3,
		Regions: map[string]string{"a": "eu"},
		ScheduledBlackouts: []RegionBlackout{
			{Region: "eu", Start: 700, Duration: 500},
		},
	}, []string{"a"}, 720)
	if bs := late.blackouts; len(bs) != 1 || bs[0].End != 719 {
		t.Fatalf("late blackout not clamped: %+v", bs)
	}
}

func TestRegionFaultsDoNotPerturbIndependentDraws(t *testing.T) {
	// The bit-identity contract: enabling the correlated layer must not
	// change a single draw of the per-center outage, grant, or dropout
	// streams.
	centers := []string{"a", "b", "c"}
	base := chaosConfig(7)
	withRegions := base
	withRegions.Regions = map[string]string{"a": "eu", "b": "eu", "c": "na"}
	withRegions.RegionMTBFTicks = 300
	withRegions.RegionMTTRTicks = 25
	withRegions.AftershockProb = 0.7
	withRegions.ScheduledBlackouts = []RegionBlackout{{Region: "na", Start: 50, Duration: 30}}

	p0 := NewPlan(base, centers, 2000)
	p1 := NewPlan(withRegions, centers, 2000)

	// Per-center outages (Region == "") identical in content and order.
	var ind0, ind1 []Outage
	for _, o := range p0.outages {
		ind0 = append(ind0, o)
	}
	for _, o := range p1.outages {
		if o.Region == "" {
			ind1 = append(ind1, o)
		}
	}
	if len(ind0) != len(ind1) {
		t.Fatalf("independent outage counts diverged: %d vs %d", len(ind0), len(ind1))
	}
	for i := range ind0 {
		if ind0[i] != ind1[i] {
			t.Fatalf("independent outage %d diverged: %+v vs %+v", i, ind0[i], ind1[i])
		}
	}
	// Grant stream identical.
	for i := 0; i < 200; i++ {
		r0, f0 := p0.GrantFault("dc")
		r1, f1 := p1.GrantFault("dc")
		if r0 != r1 || f0 != f1 {
			t.Fatalf("grant stream diverged at attempt %d", i)
		}
	}
	// Dropout hash identical.
	for z := 0; z < 10; z++ {
		for tick := 0; tick < 200; tick++ {
			if p0.DropSample(z, tick) != p1.DropSample(z, tick) {
				t.Fatalf("dropout stream diverged at (%d, %d)", z, tick)
			}
		}
	}
}

func TestRegionPlanDeterministicForSeed(t *testing.T) {
	centers := []string{"a", "b", "c"}
	for seed := uint64(1); seed <= 5; seed++ {
		p1 := NewPlan(regionConfig(seed), centers, 2000)
		p2 := NewPlan(regionConfig(seed), centers, 2000)
		o1, o2 := p1.outages, p2.outages
		if len(o1) != len(o2) {
			t.Fatalf("seed %d: outage counts differ", seed)
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("seed %d: outage %d differs: %+v vs %+v", seed, i, o1[i], o2[i])
			}
		}
		b1, b2 := p1.blackouts, p2.blackouts
		if len(b1) != len(b2) {
			t.Fatalf("seed %d: blackout counts differ", seed)
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("seed %d: blackout %d differs", seed, i)
			}
		}
	}
}

// TestHostileConfigsStayInsideRun pins the three ways a configuration
// used to break the outage plan: a NaN or infinite float validated,
// a huge mean converted out of int range in NewPlan (scheduling
// failures at negative ticks), and a scheduled blackout whose
// Start+Duration overflowed, so its region never recovered.
func TestHostileConfigsStayInsideRun(t *testing.T) {
	const ticks = 720
	regions := map[string]string{"a": "eu", "b": "eu", "c": "na"}
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
		// outages and blackouts the plan must hold.
		outages, blackouts int
	}{
		{name: "NaN reject probability", cfg: Config{RejectProb: math.NaN()}, wantErr: true},
		{name: "NaN MTBF", cfg: Config{MTBFTicks: math.NaN()}, wantErr: true},
		{name: "-Inf region MTTR", cfg: Config{RegionMTTRTicks: math.Inf(-1)}, wantErr: true},
		{name: "MTBF 1e300 never fails", cfg: Config{MTBFTicks: 1e300, MTTRTicks: 5}},
		{name: "region MTBF 1e300 never blacks out", cfg: Config{Regions: regions, RegionMTBFTicks: 1e300, RegionMTTRTicks: 5}},
		{name: "overflowing blackout saturates", cfg: Config{
			Regions:            regions,
			ScheduledBlackouts: []RegionBlackout{{Region: "eu", Start: 10, Duration: math.MaxInt}},
		}, outages: 2, blackouts: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("config %+v accepted", tc.cfg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			p := NewPlan(tc.cfg, []string{"a", "b", "c"}, ticks)
			if err := checkPlan(p, ticks); err != nil {
				t.Fatal(err)
			}
			if got := len(p.outages); got != tc.outages {
				t.Errorf("%d outages, want %d: %+v", got, tc.outages, p.outages)
			}
			if got := len(p.blackouts); got != tc.blackouts {
				t.Errorf("%d blackouts, want %d: %+v", got, tc.blackouts, p.blackouts)
			}
			for _, b := range p.blackouts {
				if b.End != ticks-1 && b.Region == "eu" {
					t.Errorf("blackout %+v ends before the run does", b)
				}
			}
		})
	}
}

// checkPlan reports the first window of p outside a run of ticks: every
// outage and blackout must satisfy 0 <= Start < End <= ticks-1.
func checkPlan(p *Plan, ticks int) error {
	for _, o := range p.outages {
		if o.Start < 0 || o.Start >= o.End || o.End > ticks-1 {
			return fmt.Errorf("outage %+v outside a %d-tick run", o, ticks)
		}
	}
	for _, b := range p.blackouts {
		if b.Start < 0 || b.Start >= b.End || b.End > ticks-1 {
			return fmt.Errorf("blackout %+v outside a %d-tick run", b, ticks)
		}
	}
	return nil
}
