// Package stats holds the order statistics the benchmark and its compare
// tool share, so that both reduce a series the same way.
package stats

import (
	"math"
	"sort"
)

// Sorted returns an ascending copy of v.
func Sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) of an ascending
// series: the smallest element with at least q of the series at or below it.
// It returns 0 for an empty series.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps a product like 0.99 × 1000, which floating point may
	// put a hair above 990, from rounding up to the next rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Median returns the middle element of v, or the mean of the middle two.
// It returns 0 for an empty series.
func Median(v []float64) float64 {
	s := Sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method), which
// is how the benchmark's acceptance rule measures spread. It needs at least
// two values; with fewer, all three are the single value (or 0).
func Quartiles(v []float64) (q1, q2, q3 float64) {
	s := Sorted(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// Spread returns the distance between the first and third quartile of v as a
// share of its median, or 0 when the median is 0.
func Spread(v []float64) float64 {
	q1, q2, q3 := Quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
