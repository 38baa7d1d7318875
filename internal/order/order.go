// Package order implements the dimension-ordering strategies of paper
// Sec. 5.5 for the tree-based engines (Star-Cubing and StarArray obey the
// dimension order throughout the computation; MM-Cubing is order-free).
package order

import (
	"fmt"
	"sort"
	"strings"

	"ccubing/internal/stats"
	"ccubing/internal/table"
)

// Strategy selects how dimensions are ordered before cubing.
type Strategy int

const (
	// Original keeps the dataset's dimension order ("Org" in Fig. 18).
	Original Strategy = iota
	// ByCardinality orders dimensions by cardinality descending, the
	// well-known strategy ("Card" in Fig. 18).
	ByCardinality
	// ByEntropy orders dimensions by the measure E(A) = -Σ|aᵢ|·log|aᵢ|
	// descending, the paper's proposal ("Entropy" in Fig. 18). More uniform
	// dimensions come first.
	ByEntropy
)

// String names the strategy as in Fig. 18.
func (s Strategy) String() string {
	switch s {
	case Original:
		return "Org"
	case ByCardinality:
		return "Card"
	case ByEntropy:
		return "Entropy"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a name — as printed by String or spelled out, in any
// case — back to a strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "org", "original":
		return Original, nil
	case "card", "cardinality":
		return ByCardinality, nil
	case "entropy":
		return ByEntropy, nil
	}
	return Original, fmt.Errorf("order: unknown strategy %q", s)
}

// Permutation returns the dimension permutation the strategy prescribes for
// the table: perm[i] is the original index of the dimension to place at
// position i. Ties break by original index, keeping runs deterministic.
func Permutation(t *table.Table, s Strategy) []int {
	nd := t.NumDims()
	perm := make([]int, nd)
	for i := range perm {
		perm[i] = i
	}
	switch s {
	case Original:
	case ByCardinality:
		// Effective (observed) cardinality descending, as BUC-family papers
		// prescribe; ties by index.
		card := make([]int, nd)
		for d := 0; d < nd; d++ {
			card[d] = stats.DistinctValues(t, d)
		}
		sort.SliceStable(perm, func(i, j int) bool { return card[perm[i]] > card[perm[j]] })
	case ByEntropy:
		e := make([]float64, nd)
		for d := 0; d < nd; d++ {
			e[d] = stats.EntropyMeasure(t, d)
		}
		sort.SliceStable(perm, func(i, j int) bool { return e[perm[i]] > e[perm[j]] })
	}
	return perm
}

// Apply reorders the table per the strategy and returns it together with the
// permutation used (new position -> original dimension), which callers need
// to map output cells back to the original dimension order.
func Apply(t *table.Table, s Strategy) (*table.Table, []int, error) {
	perm := Permutation(t, s)
	if s == Original {
		return t, perm, nil
	}
	nt, err := t.Reorder(perm)
	if err != nil {
		return nil, nil, err
	}
	return nt, perm, nil
}
