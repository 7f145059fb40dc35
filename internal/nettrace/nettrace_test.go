package nettrace

import (
	"math"
	"testing"

	"mmogdc/internal/stats"
)

func TestArchetypeRoster(t *testing.T) {
	arch := Archetypes()
	if len(arch) != 9 {
		t.Fatalf("want 9 archetypes (8 traces, trace 5 twice), got %d", len(arch))
	}
	ids := map[string]bool{}
	for _, a := range arch {
		if ids[a.ID] {
			t.Errorf("duplicate archetype id %q", a.ID)
		}
		ids[a.ID] = true
	}
	for _, want := range []string{"Trace 0", "Trace 5a", "Trace 5b", "Trace 7"} {
		if !ids[want] {
			t.Errorf("missing archetype %q", want)
		}
	}
}

func TestArchetypeByID(t *testing.T) {
	a, err := ArchetypeByID("Trace 4")
	if err != nil {
		t.Fatal(err)
	}
	if a.Description == "" {
		t.Fatal("empty description")
	}
	if _, err := ArchetypeByID("Trace 99"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestGenerateSessionDeterministic(t *testing.T) {
	a, _ := ArchetypeByID("Trace 1")
	s1 := GenerateSession(a, 500, 7)
	s2 := GenerateSession(a, 500, 7)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
	s3 := GenerateSession(a, 500, 8)
	same := 0
	for i := range s1 {
		if s1[i] == s3[i] {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds share %d/500 packets", same)
	}
}

func TestPacketBounds(t *testing.T) {
	for _, a := range Archetypes() {
		pkts := GenerateSession(a, 2000, 11)
		for i, p := range pkts {
			if p.SizeB < 20 || p.SizeB > 1400 {
				t.Fatalf("%s packet %d size %v out of [20, 1400]", a.ID, i, p.SizeB)
			}
			if p.IATms < 1 && a.ThinkShare == 0 {
				t.Fatalf("%s packet %d IAT %v < 1ms", a.ID, i, p.IATms)
			}
			if p.IATms <= 0 {
				t.Fatalf("%s packet %d non-positive IAT", a.ID, i)
			}
		}
	}
}

// sessionStats returns median size and median IAT for an archetype.
func sessionStats(t *testing.T, id string, seed uint64) (size, iat float64) {
	t.Helper()
	a, err := ArchetypeByID(id)
	if err != nil {
		t.Fatal(err)
	}
	pkts := GenerateSession(a, 5000, seed)
	return stats.Median(Sizes(pkts)), stats.Median(IATs(pkts))
}

func TestFastPacedInsensitiveToCrowding(t *testing.T) {
	// Section III-D: for fast-paced traces (T1 non-crowded, T6
	// crowded) the level of interaction does not change the load.
	s1, i1 := sessionStats(t, "Trace 1", 21)
	s6, i6 := sessionStats(t, "Trace 6", 22)
	if math.Abs(s1-s6)/s1 > 0.15 {
		t.Errorf("fast-paced sizes differ too much: %v vs %v", s1, s6)
	}
	if math.Abs(i1-i6)/i1 > 0.2 {
		t.Errorf("fast-paced IATs differ too much: %v vs %v", i1, i6)
	}
}

func TestMarketHasSimilarSizesButLargerIAT(t *testing.T) {
	// T2 (market) vs T3/T7: similar packet sizes, very different IAT —
	// trades require thinking time.
	s2, i2 := sessionStats(t, "Trace 2", 23)
	s7, i7 := sessionStats(t, "Trace 7", 24)
	if math.Abs(s2-s7)/s2 > 0.25 {
		t.Errorf("p2p sizes should be similar: %v vs %v", s2, s7)
	}
	if i2 < 1.5*i7 {
		t.Errorf("market IAT %v should far exceed T7 IAT %v", i2, i7)
	}
}

func TestGroupInteractionExtremes(t *testing.T) {
	// T4 (group interaction): lower IAT than every other trace, and
	// larger packets.
	_, iatT4 := sessionStats(t, "Trace 4", 25)
	sizeT4, _ := sessionStats(t, "Trace 4", 25)
	for _, a := range Archetypes() {
		if a.ID == "Trace 4" {
			continue
		}
		size, iat := sessionStats(t, a.ID, 26)
		if iat <= iatT4 {
			t.Errorf("%s IAT %v should exceed T4's %v", a.ID, iat, iatT4)
		}
		if size >= sizeT4 {
			t.Errorf("%s size %v should be below T4's %v", a.ID, size, sizeT4)
		}
	}
}

func TestValidationPairNearlyIdentical(t *testing.T) {
	// T5a and T5b come from the same environment at consecutive
	// times: distributions must agree closely despite different seeds.
	sa, ia := sessionStats(t, "Trace 5a", 31)
	sb, ib := sessionStats(t, "Trace 5b", 32)
	if math.Abs(sa-sb)/sa > 0.1 {
		t.Errorf("validation pair sizes differ: %v vs %v", sa, sb)
	}
	if math.Abs(ia-ib)/ia > 0.1 {
		t.Errorf("validation pair IATs differ: %v vs %v", ia, ib)
	}
}

func TestBandwidthOrdering(t *testing.T) {
	// Per-client bandwidth (size/IAT) must rank group interaction and
	// fast-paced play above slow p2p sessions.
	bw := func(id string) float64 {
		a, _ := ArchetypeByID(id)
		return BandwidthMBps(GenerateSession(a, 5000, 41))
	}
	if bw("Trace 4") <= bw("Trace 2") {
		t.Error("group interaction should out-consume the market")
	}
	if bw("Trace 6") <= bw("Trace 0") {
		t.Error("fast-paced play should out-consume content creation")
	}
}

func TestBandwidthEmptyAndZero(t *testing.T) {
	if BandwidthMBps(nil) != 0 {
		t.Fatal("empty session bandwidth should be 0")
	}
	if BandwidthMBps([]Packet{{SizeB: 100, IATms: 0}}) != 0 {
		t.Fatal("zero-duration session bandwidth should be 0")
	}
}

func TestSizesAndIATs(t *testing.T) {
	pkts := []Packet{{SizeB: 10, IATms: 1}, {SizeB: 20, IATms: 2}}
	if s := Sizes(pkts); s[0] != 10 || s[1] != 20 {
		t.Fatalf("Sizes = %v", s)
	}
	if i := IATs(pkts); i[0] != 1 || i[1] != 2 {
		t.Fatalf("IATs = %v", i)
	}
}

func TestFig4(t *testing.T) {
	out := Fig4(1000, 1)
	if len(out) != 9 {
		t.Fatalf("Fig4 returned %d sessions", len(out))
	}
	for _, s := range out {
		// The truncation points used in the paper's plots must cover
		// most of the mass.
		if p := s.Size.At(500); p < 0.5 {
			t.Errorf("%s: only %.0f%% of packets below 500 B", s.Archetype.ID, p*100)
		}
		if p := s.IAT.At(600); p < 0.5 {
			t.Errorf("%s: only %.0f%% of IATs below 600 ms", s.Archetype.ID, p*100)
		}
	}
}
