// Package stats computes dataset properties used by the dimension-ordering
// heuristics (paper Sec. 5.5) and the algorithm advisor: per-dimension value
// histograms, entropy measures and a dependence estimate.
package stats

import (
	"math"

	"ccubing/internal/core"
	"ccubing/internal/psort"
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
//
// Each H(B) is computed once; per A the tuples are counting-sorted by A once,
// and every H(B|A) reads the groups with one dense histogram of B.
func DependenceEstimate(t *table.Table) float64 {
	nd := t.NumDims()
	n := t.NumTuples()
	if nd < 2 || n == 0 {
		return 0
	}
	h := make([]float64, nd)
	maxCard := 0
	for d := range h {
		h[d] = Entropy(t, d)
		maxCard = max(maxCard, t.Cards[d])
	}
	tids := make([]core.TID, n)
	for i := range tids {
		tids[i] = core.TID(i)
	}
	hist := make([]int64, maxCard)
	var p psort.Partitioner
	total, pairs := 0.0, 0
	for a := 0; a < nd; a++ {
		groups := p.Partition(tids, t.Cols[a], t.Cards[a])
		for b := 0; b < nd; b++ {
			if a == b || h[b] == 0 {
				continue
			}
			total += 1 - conditionalEntropy(t.Cols[b], tids, groups, hist)/h[b]
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}

// conditionalEntropy computes H(B|A) in nats, where col is B's column and
// groups the runs of tids (sorted by A) sharing one value of A. hist is an
// all-zero histogram over B's values, and is left all-zero.
func conditionalEntropy(col []core.Value, tids []core.TID, groups psort.Buckets, hist []int64) float64 {
	n := float64(len(tids))
	e := 0.0
	for g := range groups.Vals {
		group := tids[groups.Off[g]:groups.Off[g+1]]
		pa := float64(len(group))
		for _, tid := range group {
			hist[col[tid]]++
		}
		for _, tid := range group {
			if c := hist[col[tid]]; c > 0 {
				e -= float64(c) / n * math.Log(float64(c)/pa)
				hist[col[tid]] = 0
			}
		}
	}
	return e
}
