package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" rule as Python's statistics.quantiles(xs, n=4), which is how
// run-to-run spread is judged. Fewer than two values give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// minBeyond is the number of samples that must lie above a reported
// percentile for it to mean anything.
const minBeyond = 10

// histogram pools latency samples over a run in buckets one percent wide,
// keeping each bucket's sum, so its memory stays fixed however long the
// run: a reported live heap must not grow with the measuring time.
type histogram struct {
	n       int64
	buckets [histBuckets]struct {
		n   int64
		sum float64
	}
}

// Buckets span histBase·1.01^i, from a nanosecond to about 24 seconds
// when samples are in microseconds.
const (
	histBuckets = 2400
	histBase    = 1e-3
)

var histLogGrowth = math.Log(1.01)

func (h *histogram) add(xs ...float64) {
	for _, x := range xs {
		i := 0
		if x > histBase {
			i = min(int(math.Log(x/histBase)/histLogGrowth), histBuckets-1)
		}
		h.buckets[i].n++
		h.buckets[i].sum += x
		h.n++
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100), as
// the mean of the samples in the bucket holding that rank, within a
// percent of the exact value. It fails when fewer than minBeyond samples
// lie above the rank, so a p99 needs at least 1000 samples.
func (h *histogram) percentile(p float64) (float64, error) {
	rank := max(int64(math.Ceil(float64(h.n)*p/100)), 1) // 1-based
	if beyond := h.n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, h.n, beyond, minBeyond)
	}
	var seen int64
	for _, b := range h.buckets {
		if seen += b.n; seen >= rank {
			return b.sum / float64(b.n), nil
		}
	}
	panic("histogram: rank beyond its samples")
}

// verdictWindow is the number of verdict samples, at least, that one
// window pools. A p99 of a window has a hundred samples beyond it.
const verdictWindow = 10000

// windows splits a run's verdict latencies into consecutive windows of
// whole segments holding at least verdictWindow samples each, and keeps
// each window's p50 and p99. The run reports the medians over its windows.
// A burst of host noise or garbage collection that lifts the tail of a few
// windows then moves the report no more than any other window would, where
// a percentile pooled over the whole run is pulled up by every such burst.
type windows struct {
	n        int64     // samples added
	cur      histogram // the window being filled
	p50, p99 []float64 // one per closed window
}

func (w *windows) add(xs []float64) {
	w.cur.add(xs...)
	w.n += int64(len(xs))
	if w.cur.n >= verdictWindow {
		if err := w.close(); err != nil {
			panic(err) // a full window has enough samples beyond its p99
		}
	}
}

func (w *windows) close() error {
	p50, err := w.cur.percentile(50)
	if err != nil {
		return err
	}
	p99, err := w.cur.percentile(99)
	if err != nil {
		return err
	}
	w.p50, w.p99 = append(w.p50, p50), append(w.p99, p99)
	w.cur = histogram{}
	return nil
}

// medians returns the medians of the windows' p50 and p99. The samples of
// a window that did not fill are used only when no window did; a run too
// short for them to give a p99 is an error.
func (w *windows) medians() (p50, p99 float64, err error) {
	if len(w.p99) == 0 {
		if err := w.close(); err != nil {
			return 0, 0, err
		}
	}
	return median(w.p50), median(w.p99), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
