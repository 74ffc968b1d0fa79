package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 1, 7, 3, 4, 6, 2, 9, 5, 8}, 2.75, 8.25},
		{[]float64{2, 4, 6, 8, 10, 12}, 3.5, 10.5},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// A reported percentile needs at least ten samples beyond it, and comes
// within a percent of the exact nearest-rank value.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0 means the percentile must be refused
	}{
		{1000, 99, 990},
		{999, 99, 0},
		{2000, 99, 1980},
		{20, 50, 10},
		{19, 50, 0},
		{0, 50, 0},
		{10000, 99.9, 9990},
		{9999, 99.9, 0},
	} {
		var h histogram
		h.add(ramp(c.n)...)
		got, err := h.percentile(c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want it refused", c.p, c.n, got)
			}
			continue
		}
		if err != nil || math.Abs(got-c.want) > 0.01*c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v within 1%%", c.p, c.n, got, err, c.want)
		}
	}
}

// Samples outside the bucket range land in the end buckets.
func TestHistogramClampsOutliers(t *testing.T) {
	var h histogram
	h.add(0, -1, 1e12)
	for i := 0; i < 20; i++ {
		h.add(5)
	}
	if got, err := h.percentile(50); err != nil || got != 5 {
		t.Fatalf("p50 = %v, %v; want 5", got, err)
	}
}

// Verdict percentiles are medians over windows of whole segments: a burst
// that lifts the tail of one window does not move the report, and a run
// that fills no window falls back to all its samples.
func TestWindowsReportMedians(t *testing.T) {
	var w windows
	calm := make([]float64, verdictWindow)
	for i := range calm {
		calm[i] = 10
	}
	burst := append([]float64(nil), calm...)
	for i := 0; i < verdictWindow/10; i++ {
		burst[i] = 1000
	}
	for _, seg := range [][]float64{calm, burst, calm} {
		w.add(seg)
	}
	w.add(calm[:10]) // a window that does not fill is not used
	p50, p99, err := w.medians()
	if err != nil || p50 != 10 || p99 != 10 || len(w.p99) != 3 {
		t.Fatalf("medians = %v, %v, %v over %d windows; want 10, 10 over 3", p50, p99, err, len(w.p99))
	}

	var short windows
	short.add(ramp(2000)[:1000])
	short.add(ramp(2000)[1000:])
	if _, p99, err := short.medians(); err != nil || math.Abs(p99-1980) > 19.8 {
		t.Fatalf("p99 of a run with no full window = %v, %v; want 1980 within 1%%", p99, err)
	}
	var tooShort windows
	tooShort.add(ramp(999))
	if _, _, err := tooShort.medians(); err == nil {
		t.Fatal("a p99 of 999 samples was reported")
	}
}
