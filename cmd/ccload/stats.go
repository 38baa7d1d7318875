package main

import (
	"math"
	"sort"
)

// Interference on a shared box only ever slows a deterministic operation, so
// every reported duration (a build, a boot, a refresh) is a low-order
// statistic over fixed repetitions spread over the run: the fastest, or the
// k-th fastest where a lucky outlier is possible. The slow tail — where the
// neighbours' noise lives — never reaches the estimate. Throughputs apply
// the same idea block by block; see client.go.

// kthSmallest returns the k-th smallest value (1-based) of xs, clamped to the
// sample; it does not modify xs. Empty input yields 0.
func kthSmallest(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}

// kthLargest returns the k-th largest value (1-based) of xs, clamped.
func kthLargest(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return 0
	}
	if k < 1 {
		k = 1
	}
	if k > len(xs) {
		k = len(xs)
	}
	return kthSmallest(xs, len(xs)-k+1)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile (p in [0,1]) — tails are reported
// per layer only, never gated, so no interpolation finesse is needed.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartiles returns Q1 and Q3 by the exclusive method — the one Python's
// statistics.quantiles(values, n=4) uses, which is what the acceptance check
// of the benchmark contract computes the spread with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// ratio is a/b, 0 when the base is 0 (an untouched layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
