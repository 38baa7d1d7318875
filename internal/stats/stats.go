// Package stats computes dataset properties used by the dimension-ordering
// heuristics (paper Sec. 5.5) and the algorithm advisor: per-dimension value
// histograms, entropy measures and a dependence estimate.
package stats

import (
	"math"

	"ccubing/internal/core"
	"ccubing/internal/table"
)

// Histogram returns the value-frequency vector of dimension d.
func Histogram(t *table.Table, d int) []int64 {
	h := make([]int64, t.Cards[d])
	for _, v := range t.Cols[d] {
		h[v]++
	}
	return h
}

// Entropy computes the Shannon entropy of dimension d in nats:
// -Σ (|aᵢ|/T) · ln(|aᵢ|/T).
func Entropy(t *table.Table, d int) float64 {
	n := float64(t.NumTuples())
	if n == 0 {
		return 0
	}
	e := 0.0
	for _, c := range Histogram(t, d) {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		e -= p * math.Log(p)
	}
	return e
}

// EntropyMeasure computes the paper's comparison measure
// E(A) = -Σ |aᵢ|·log(|aᵢ|), the entropy with the constant terms dropped
// (Sec. 5.5). Dimensions are ordered by E descending: more uniform
// distributions have larger E.
func EntropyMeasure(t *table.Table, d int) float64 {
	e := 0.0
	for _, c := range Histogram(t, d) {
		if c == 0 {
			continue
		}
		e -= float64(c) * math.Log(float64(c))
	}
	return e
}

// DistinctValues counts the values that actually occur on dimension d (the
// effective cardinality, at most t.Cards[d]).
func DistinctValues(t *table.Table, d int) int {
	n := 0
	for _, c := range Histogram(t, d) {
		if c > 0 {
			n++
		}
	}
	return n
}

// DependenceEstimate samples pairs of dimensions and estimates how
// functionally determined the dataset is: for random dimension pairs (A, B)
// it measures 1 - H(B|A)/H(B), averaged. 0 means independent, 1 means B is a
// function of A for all sampled pairs. It is a cheap proxy for the paper's
// rule-count dependence R, used only by the advisor.
func DependenceEstimate(t *table.Table) float64 {
	nd := t.NumDims()
	if nd < 2 || t.NumTuples() == 0 {
		return 0
	}
	total, pairs := 0.0, 0
	for a := 0; a < nd; a++ {
		for b := 0; b < nd; b++ {
			if a == b {
				continue
			}
			hb := Entropy(t, b)
			if hb == 0 {
				continue
			}
			total += 1 - conditionalEntropy(t, b, a)/hb
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}

// conditionalEntropy computes H(B|A) in nats.
func conditionalEntropy(t *table.Table, b, a int) float64 {
	n := t.NumTuples()
	joint := make(map[[2]core.Value]int64, 64)
	for i := 0; i < n; i++ {
		joint[[2]core.Value{t.Cols[a][i], t.Cols[b][i]}]++
	}
	ha := Histogram(t, a)
	e := 0.0
	for k, c := range joint {
		pa := float64(ha[k[0]])
		e -= float64(c) / float64(n) * math.Log(float64(c)/pa)
	}
	return e
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
