package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: fewer, and the "tail" is one or two outliers.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p in n
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest percentile that still has at least
// minBeyond samples beyond it: an integer percentile from 50 to 99, or
// 99.9. With fewer than 2*minBeyond samples no percentile above the
// median qualifies and the median is returned.
func tailPercentile(n int) float64 {
	if n-rank(99.9, n) >= minBeyond {
		return 99.9
	}
	for p := 99; p > 50; p-- {
		if n-rank(float64(p), n) >= minBeyond {
			return float64(p)
		}
	}
	return 50
}

// timing summarises a sample of durations as its median and its tail.
type timing struct {
	N      int
	P50    float64 // ms
	Tail   float64 // ms
	TailAt float64 // the tail's percentile
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// summarize reports a median and a tail, in milliseconds. With at least
// two windows of w samples, the tail is the median of the tails of
// consecutive w-sample windows, so one burst of host noise does not set
// it; w <= 0 means one window.
func summarize(ds []time.Duration, w int) timing {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	if w <= 0 || len(ms) < 2*w {
		w = len(ms)
	}
	var tails []float64
	var at float64
	for lo := 0; lo+w <= len(ms); lo += w {
		win := append([]float64(nil), ms[lo:lo+w]...)
		sort.Float64s(win)
		at = tailPercentile(w)
		tails = append(tails, percentile(win, at))
	}
	sort.Float64s(ms)
	return timing{N: len(ms), P50: percentile(ms, 50), Tail: median(tails), TailAt: at}
}

// quartiles returns the 10th, 25th, 50th, 75th and 90th percentiles of
// ds in milliseconds, for the human-readable report.
func quartiles(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	out := make([]float64, 0, 5)
	for _, p := range []float64{10, 25, 50, 75, 90} {
		out = append(out, percentile(ms, p))
	}
	return out
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
