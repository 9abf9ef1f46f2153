package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of the samples
// at or below it. An empty slice reads 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rank(len(asc), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples.
// The epsilon keeps 99.9 % of 10000 at 9990, not 9991.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for the reported tail, lowest
// first.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tail picks the highest candidate percentile that still has at least
// ten samples beyond it, so the reported tail is never one outlier.
// With fewer than twenty samples even the median fails the rule and
// ok is false.
func tail(asc []float64) (p, value float64, ok bool) {
	for _, c := range tailPercentiles {
		r := rank(len(asc), c)
		if len(asc)-r < 10 {
			break
		}
		p, value, ok = c, asc[r-1], true
	}
	return p, value, ok
}

// quartiles returns Q1 and Q3 by the exclusive method, the same
// numbers Python's statistics.quantiles(values, n=4) gives, so the
// spread this program prints is the spread the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
