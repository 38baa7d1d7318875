package qctree

// Build-cost comparison, from the same closed cell set, between the bare
// QC-tree the original Quotient Cube system built and the cubestore that
// serves queries here — the measurement behind keeping one closure-lookup
// structure.

import (
	"fmt"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/cubestore"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
)

// treeOnly inserts already-computed closed cells into a fresh tree.
func treeOnly(cells []core.Cell) *Tree {
	t := &Tree{root: &node{dim: -1}}
	for _, c := range cells {
		t.insert(c.Values, c.Count)
	}
	return t
}

// BenchmarkBuildComparison times, from the same closed cell set: the bare
// QC-tree (the paper baseline's structure) and the cubestore (the serving
// index).
func BenchmarkBuildComparison(b *testing.B) {
	tbl := gen.MustSynthetic(gen.Config{T: 30000, D: 6, C: 20, S: 1.1, Seed: 13})
	for _, minsup := range []int64{32, 8} {
		col := &sink.Collector{}
		if err := qcdfs.Engine.Run(tbl, engine.Config{MinSup: minsup, Closed: true}, col); err != nil {
			b.Fatal(err)
		}
		cells := col.Cells
		b.Run(fmt.Sprintf("qctree-only/cells=%d", len(cells)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tr := treeOnly(cells); tr.Nodes() == 0 {
					b.Fatal("empty tree")
				}
			}
		})
		b.Run(fmt.Sprintf("cubestore-only/cells=%d", len(cells)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sb := cubestore.NewBuilder(tbl.NumDims(), false)
				for _, c := range cells {
					sb.Add(c.Values, c.Count, 0)
				}
				if _, err := sb.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
