package main

import (
	"math"
	"sort"
)

// Summary helpers. Latency percentiles use the nearest-rank definition on
// one run's samples; the across-run spread uses the same quartile rule as
// Python's statistics.quantiles(values, n=4), so the steadiness check and
// any external check of the printed numbers agree exactly.

// minBeyond is the number of samples a reported percentile must have above
// it: a tail figure resting on fewer samples moves with a single outlier.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// must be sorted ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// supported reports whether n samples leave at least minBeyond samples
// above the nearest-rank q-quantile.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// highestSupported returns the highest of the candidate quantiles (given in
// ascending order) that n samples support, or 0 when none is.
func highestSupported(n int, candidates ...float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs with the "exclusive" method
// of Python's statistics.quantiles(xs, n=4). It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relIQR is the interquartile range of xs as a share of its median: the
// spread the acceptance check holds against each metric's bound.
func relIQR(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
