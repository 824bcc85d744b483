package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spreads this program reports match the ones computed from its
// printed results.  It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-quantile of xs.  It refuses a
// percentile with fewer than ten samples beyond it, so a tail is only
// reported where it is measured: p99 needs at least 1000 samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if beyond := float64(n) * (1 - p); n == 0 || beyond < 10-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples has fewer than 10 samples beyond it", p*100, n)
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(n))) - 1
	return s[min(max(k, 0), n-1)], nil
}
