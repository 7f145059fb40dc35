package plot

import (
	"math"
	"strings"
	"testing"
)

func TestRenderBasicShape(t *testing.T) {
	c := Chart{
		Title:  "test chart",
		YLabel: "players",
		XLabel: "time",
		Width:  40,
		Height: 8,
		Series: []Series{{Name: "load", Values: []float64{0, 1, 2, 3, 4, 5, 6, 7}}},
	}
	out := c.Render()
	if !strings.Contains(out, "test chart") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "* load") {
		t.Fatal("legend missing")
	}
	if !strings.Contains(out, "y: players") || !strings.Contains(out, "time") {
		t.Fatal("axis labels missing")
	}
	lines := strings.Split(out, "\n")
	plotLines := 0
	for _, l := range lines {
		if strings.Contains(l, "|") {
			plotLines++
		}
	}
	if plotLines != 8 {
		t.Fatalf("plot rows = %d, want 8", plotLines)
	}
}

func TestRenderMonotoneSeriesFillsCorners(t *testing.T) {
	c := Chart{Width: 20, Height: 5,
		Series: []Series{{Name: "ramp", Values: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}}}
	out := c.Render()
	rows := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Top row holds the max (right side), bottom row the min (left).
	top := rows[0]
	if !strings.Contains(top, "*") {
		t.Fatalf("top row empty: %q", top)
	}
	if strings.Index(top, "*") < len(top)/2 {
		t.Fatal("max of a ramp should plot on the right")
	}
}

func TestRenderMultiSeriesMarkers(t *testing.T) {
	c := Chart{Width: 30, Height: 6, Series: []Series{
		{Name: "a", Values: []float64{1, 1, 1}},
		{Name: "b", Values: []float64{2, 2, 2}},
	}}
	out := c.Render()
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("distinct markers missing")
	}
	if !strings.Contains(out, "* a") || !strings.Contains(out, "+ b") {
		t.Fatal("legend entries missing")
	}
}

func TestRenderEmptyAndDegenerate(t *testing.T) {
	if out := (&Chart{Title: "empty"}).Render(); !strings.Contains(out, "(no data)") {
		t.Fatalf("empty chart = %q", out)
	}
	out := (&Chart{Series: []Series{{Name: "nan", Values: []float64{math.NaN()}}}}).Render()
	if !strings.Contains(out, "(no data)") {
		t.Fatal("all-NaN series should render as no data")
	}
	// Constant series must not divide by zero.
	out = (&Chart{Width: 10, Height: 4,
		Series: []Series{{Name: "c", Values: []float64{5, 5, 5}}}}).Render()
	if !strings.Contains(out, "*") {
		t.Fatal("constant series not plotted")
	}
}

func TestRenderSkipsNonFinite(t *testing.T) {
	c := Chart{Width: 12, Height: 4, Series: []Series{
		{Name: "gappy", Values: []float64{1, math.NaN(), 3, math.Inf(1), 5}},
	}}
	out := c.Render()
	if !strings.Contains(out, "*") {
		t.Fatal("finite points not plotted")
	}
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatal("non-finite values leaked into labels")
	}
}

func TestSampleAt(t *testing.T) {
	vals := []float64{0, 10, 20, 30}
	// Four columns over four samples: identity.
	for x := 0; x < 4; x++ {
		v, ok := sampleAt(vals, x, 4)
		if !ok || v != float64(x*10) {
			t.Fatalf("sampleAt(%d) = %v, %v", x, v, ok)
		}
	}
	// More columns than samples: later columns beyond data are not ok.
	if _, ok := sampleAt([]float64{1}, 3, 8); ok {
		t.Fatal("column beyond single sample should be not-ok")
	}
	if v, ok := sampleAt([]float64{1}, 0, 8); !ok || v != 1 {
		t.Fatal("first column should carry the single sample")
	}
	if _, ok := sampleAt(nil, 0, 8); ok {
		t.Fatal("empty series should be not-ok")
	}
}

func TestHeatmapRender(t *testing.T) {
	h := Heatmap{
		Title:  "world",
		Rows:   2,
		Cols:   3,
		Values: []float64{0, 5, 10, 10, 5, 0},
	}
	out := h.Render()
	if !strings.Contains(out, "world") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "@@") {
		t.Fatal("max cell not rendered at full density")
	}
	if !strings.Contains(out, "scale:") {
		t.Fatal("scale legend missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + 2 rows + scale
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestHeatmapInvalid(t *testing.T) {
	h := Heatmap{Rows: 2, Cols: 2, Values: []float64{1}}
	if out := h.Render(); !strings.Contains(out, "invalid") {
		t.Fatalf("bad dims rendered: %q", out)
	}
	empty := Heatmap{Rows: 1, Cols: 1, Values: []float64{math.NaN()}}
	if out := empty.Render(); !strings.Contains(out, "no data") {
		t.Fatalf("NaN-only heatmap: %q", out)
	}
}

func TestHeatmapConstant(t *testing.T) {
	h := Heatmap{Rows: 1, Cols: 2, Values: []float64{3, 3}}
	out := h.Render()
	if !strings.Contains(out, "@@@@") {
		t.Fatalf("constant non-zero map should render at full density: %q", out)
	}
	z := Heatmap{Rows: 1, Cols: 2, Values: []float64{0, 0}}
	rows := strings.Split(z.Render(), "\n")
	if strings.Contains(rows[0], "@") {
		t.Fatalf("all-zero map should be empty glyphs: %q", rows[0])
	}
}
