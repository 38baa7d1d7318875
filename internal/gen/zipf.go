// Package gen produces the synthetic and simulated datasets of the paper's
// evaluation (Sec. 5): uniform and Zipf-skewed relations, relations with
// injected dependence rules (Sec. 5.3), and a simulator standing in for the
// SEP83L weather dataset (weather.go gives the substitution rationale).
// All generators are deterministic given a seed.
package gen

import "math/rand"

// Zipf samples values in [0, n) with P(k) proportional to 1/(k+1)^s. Unlike
// math/rand.Zipf it accepts any s >= 0 (the paper sweeps skew 0..3, and 0
// must mean uniform), using a precomputed CDF and binary search.
type Zipf struct {
	cdf []float64 // cdf[k] = P(value <= k)
	rng *rand.Rand
}

// NewZipf builds a sampler over n values with exponent s using rng.
// It panics if n < 1 or s < 0.
func NewZipf(rng *rand.Rand, s float64, n int) *Zipf {
	if n < 1 {
		panic("gen: Zipf needs n >= 1")
	}
	if s < 0 {
		panic("gen: Zipf needs s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += zipfWeight(k, s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, rng: rng}
}

func zipfWeight(k int, s float64) float64 {
	if s == 0 {
		return 1
	}
	return powNeg(float64(k+1), s)
}

// Next samples one value.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the number of distinct values the sampler draws from.
func (z *Zipf) N() int { return len(z.cdf) }
