package serve

import "sort"

// Canonical result ordering. The store ranks rows by packed cell keys, and
// packed keys are built from dictionary codes — which are shard-local on
// labeled cubes (each worker assigns codes in its own first-occurrence
// order). For a router's merged answer to be byte-identical to a single
// store's, ties must break on something every node agrees on: the rendered
// label strings. Slices are therefore re-sorted with the comparator here
// before truncating, and aggregates are ranked by aggPartial.top (partial.go):
// descending by the requested measure, ties by label tuple ascending, the
// same order on a single node, on every worker and on the router.

// lessLabels orders label tuples ascending, element-wise string compare.
func lessLabels(a, b []string) bool {
	for d := range a {
		if a[d] != b[d] {
			return a[d] < b[d]
		}
	}
	return false
}

// cellMask packs which dimensions a cell fixes (non-"*") into a bitmask, the
// serve-layer analogue of the store's cuboid mask.
func cellMask(cell []string) uint64 {
	var m uint64
	for d, s := range cell {
		if s != "*" {
			m |= 1 << uint(d)
		}
	}
	return m
}

// sortSliceCells orders slice results by cuboid (fixed-dimension mask
// ascending), then label tuple ascending — deterministic and
// dictionary-independent, so truncation at a limit keeps the same cells on
// every topology.
func sortSliceCells(cells []sliceCell) {
	sort.Slice(cells, func(i, j int) bool {
		if mi, mj := cellMask(cells[i].Cell), cellMask(cells[j].Cell); mi != mj {
			return mi < mj
		}
		return lessLabels(cells[i].Cell, cells[j].Cell)
	})
}
