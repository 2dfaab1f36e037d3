package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{15, 0},    // 7 samples above the median: nothing is supported
		{20, 0.5},  // 10 above p50
		{99, 0.5},  // 9 above p90
		{100, 0.9}, // 10 above p90
		{999, 0.9}, // 9 above p99
		{1000, 0.99},
		{10000, 0.999},
	} {
		if got := highestSupported(tc.n, 0.5, 0.9, 0.99, 0.999); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.2, 1.1, 9.9, 4.4, 7.0}, [3]float64{2.15, 4.4, 8.45}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
}

func TestRelIQR(t *testing.T) {
	// (8.25 - 2.75) / 5.5 = 1
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("relIQR(1..10) = %g, want 1", got)
	}
	if got := relIQR([]float64{7, 7, 7, 7}); got != 0 {
		t.Errorf("relIQR of a constant = %g, want 0", got)
	}
}
