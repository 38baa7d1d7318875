package qctree

import (
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/qcdfs"
	"ccubing/internal/refcube"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

func paperTable(t *testing.T) *table.Table {
	t.Helper()
	tb, err := table.FromRows([][]core.Value{
		{0, 0, 0, 0},
		{0, 0, 0, 2},
		{0, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// buildTree runs the engine (QC-DFS + tree insertion) over tb and returns the
// materialized tree, which Run itself discards once the cells are forwarded.
func buildTree(t *testing.T, tb *table.Table, minsup int64) *Tree {
	t.Helper()
	ins := &inserter{t: &Tree{root: &node{dim: -1}}, next: &sink.Null{}}
	if err := qcdfs.Engine.Run(tb, engine.Config{MinSup: minsup, Closed: true}, ins); err != nil {
		t.Fatal(err)
	}
	return ins.t
}

func TestTreeSmallerThanClosedCells(t *testing.T) {
	// Prefix sharing must make node count at most the total of bound values
	// over closed cells.
	tb := gen.MustSynthetic(gen.Config{T: 200, D: 4, C: 5, S: 1, Seed: 6})
	tree := buildTree(t, tb, 1)
	closed, err := refcube.Closed(tb, 1)
	if err != nil {
		t.Fatal(err)
	}
	var bound int64
	for _, c := range closed {
		bound += int64(c.Dims())
	}
	if tree.Nodes() > bound {
		t.Fatalf("nodes %d exceeds total bound values %d", tree.Nodes(), bound)
	}
}

func TestRunForwardsCells(t *testing.T) {
	tb := paperTable(t)
	var c sink.Collector
	if err := Engine.Run(tb, engine.Config{MinSup: 2, Closed: true}, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Cells) != 2 {
		t.Fatalf("forwarded %d cells, want 2", len(c.Cells))
	}
}

func TestBuildErrors(t *testing.T) {
	tb := paperTable(t)
	if err := Engine.Run(tb, engine.Config{MinSup: 0, Closed: true}, &sink.Null{}); err == nil {
		t.Fatal("min_sup 0 must error")
	}
}

// TestRunForwardsMeasure checks the engine is native: the aggregate QC-DFS
// folds for each upper-bound cell reaches the downstream sink unchanged.
func TestRunForwardsMeasure(t *testing.T) {
	tb := paperTable(t)
	tb.Aux = []float64{1, 2, 4}
	var c sink.Collector
	if err := Engine.Run(tb, engine.Config{MinSup: 1, Closed: true, Measure: core.MeasureSum}, &c); err != nil {
		t.Fatal(err)
	}
	for _, cell := range c.Cells {
		if cell.Dims() == 0 && cell.Aux != 7 {
			t.Fatalf("apex sum = %v, want 7", cell.Aux)
		}
		if cell.Aux == 0 {
			t.Fatalf("cell %v forwarded without its measure", cell)
		}
	}
}
