// Package plot renders small ASCII line charts for the experiment
// reports, so the "figure" experiments produce something figure-shaped
// in a terminal: multiple series over a shared x-axis, auto-scaled
// y-range, per-series markers, and a legend.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line.
type Series struct {
	// Name appears in the legend.
	Name string
	// Values are the y samples, evenly spaced on the x-axis.
	Values []float64
}

// Chart is a multi-series ASCII line chart. Zero values for Width and
// Height pick sensible defaults (72x16 plot area).
type Chart struct {
	Title  string
	YLabel string
	XLabel string
	Width  int
	Height int
	Series []Series
}

// markers distinguish series in the plot area.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '~'}

// Render draws the chart.
func (c *Chart) Render() string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 72
	}
	if h <= 0 {
		h = 16
	}

	lo, hi := math.Inf(1), math.Inf(-1)
	maxLen := 0
	for _, s := range c.Series {
		for _, v := range s.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
	}
	if maxLen == 0 || math.IsInf(lo, 1) {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if hi == lo {
		hi = lo + 1
	}

	// Plot grid.
	grid := make([][]byte, h)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for x := 0; x < w; x++ {
			v, ok := sampleAt(s.Values, x, w)
			if !ok {
				continue
			}
			yf := (v - lo) / (hi - lo)
			y := h - 1 - int(yf*float64(h-1)+0.5)
			if y < 0 {
				y = 0
			}
			if y >= h {
				y = h - 1
			}
			grid[y][x] = m
		}
	}

	// Y-axis labels on five rows.
	labelFor := map[int]string{}
	for i := 0; i <= 4; i++ {
		row := i * (h - 1) / 4
		val := hi - (hi-lo)*float64(row)/float64(h-1)
		labelFor[row] = fmt.Sprintf("%10.4g", val)
	}
	for y := 0; y < h; y++ {
		if lbl, ok := labelFor[y]; ok {
			b.WriteString(lbl)
		} else {
			b.WriteString(strings.Repeat(" ", 10))
		}
		b.WriteString(" |")
		b.Write(grid[y])
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 11) + "+" + strings.Repeat("-", w) + "\n")
	if c.XLabel != "" {
		pad := 11 + (w-len(c.XLabel))/2
		if pad < 0 {
			pad = 0
		}
		b.WriteString(strings.Repeat(" ", pad) + c.XLabel + "\n")
	}

	// Legend.
	var legend []string
	for si, s := range c.Series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	if len(legend) > 0 {
		b.WriteString(strings.Repeat(" ", 12) + strings.Join(legend, "   ") + "\n")
	}
	if c.YLabel != "" {
		b.WriteString(strings.Repeat(" ", 12) + "y: " + c.YLabel + "\n")
	}
	return b.String()
}

// sampleAt maps plot column x (of w) onto the series by averaging the
// covered bucket. It returns ok=false for columns beyond the series.
func sampleAt(values []float64, x, w int) (float64, bool) {
	n := len(values)
	if n == 0 {
		return 0, false
	}
	if n == 1 {
		return values[0], x == 0
	}
	from := x * n / w
	to := (x + 1) * n / w
	if to <= from {
		to = from + 1
	}
	if from >= n {
		return 0, false
	}
	if to > n {
		to = n
	}
	var sum float64
	cnt := 0
	for i := from; i < to; i++ {
		if math.IsNaN(values[i]) || math.IsInf(values[i], 0) {
			continue
		}
		sum += values[i]
		cnt++
	}
	if cnt == 0 {
		return 0, false
	}
	return sum / float64(cnt), true
}
