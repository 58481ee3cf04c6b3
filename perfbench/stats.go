package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p99 over 300 samples rests on three values and is noise.
const minBeyond = 10

// tailQuantiles are the candidate tail percentiles, highest first. The
// highest one with minBeyond samples beyond it is reported as the tail.
var tailQuantiles = []float64{0.99, 0.9, 0.5}

// tailQuantile returns the highest candidate quantile that leaves at least
// minBeyond of n samples above it, or 0 when even the median does not.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if n-rank(q, n) >= minBeyond {
			return q
		}
	}
	return 0
}

// rank is the 1-based nearest rank of quantile q among n samples. The
// epsilon keeps 0.9*100 from rounding up to 91.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
// Infinite entries (failed operations) sort last and count as missing
// every limit. It returns NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

// dist is a sample set summarized as a median and a tail percentile.
type dist struct {
	n     int
	p50   float64
	tail  float64 // value at quantile tailQ
	tailQ float64
}

// summarize sorts a copy of xs and returns its median and tail. When there
// are too few samples for any tail, the tail is the maximum.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{n: len(s), p50: quantile(s, 0.5), tailQ: tailQuantile(len(s))}
	if d.tailQ > 0 {
		d.tail = quantile(s, d.tailQ)
	} else {
		d.tail = quantile(s, 1)
	}
	return d
}

// median is the 0.5 quantile of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
