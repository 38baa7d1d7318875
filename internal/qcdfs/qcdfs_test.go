package qcdfs

import (
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/refcube"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

func run(t *testing.T, tb *table.Table, minsup int64) *sink.Collector {
	t.Helper()
	var c sink.Collector
	d := &sink.Dedup{Next: &c}
	if err := Engine.Run(tb, engine.Config{MinSup: minsup, Closed: true}, d); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d.Dup != 0 {
		t.Fatalf("QC-DFS emitted %d duplicate cells", d.Dup)
	}
	return &c
}

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

// TestPaperExample1 checks the exact closed iceberg cube of Table 1 at
// min_sup 2: {(a1,b1,c1,*):2, (a1,*,*,*):3}.
func TestPaperExample1(t *testing.T) {
	got := run(t, paperTable(t), 2)
	if len(got.Cells) != 2 {
		t.Fatalf("cells = %s", sink.FormatCells(got.Cells))
	}
	m, _ := got.ByKey()
	if m[core.CellKey([]core.Value{0, 0, 0, core.Star})] != 2 {
		t.Fatalf("missing (a1,b1,c1,*):2 in %s", sink.FormatCells(got.Cells))
	}
	if m[core.CellKey([]core.Value{0, core.Star, core.Star, core.Star})] != 3 {
		t.Fatalf("missing (a1,*,*,*):3 in %s", sink.FormatCells(got.Cells))
	}
}

func TestFullClosedCubeOfPaperTable(t *testing.T) {
	want, err := refcube.Closed(paperTable(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := run(t, paperTable(t), 1)
	if diff := sink.DiffCells(got.Cells, want, 10); diff != "" {
		t.Fatalf("mismatch:\n%s", diff)
	}
}

// TestMatchesOracleRandomized is the central soundness test: QC-DFS must
// produce exactly the definitional closed iceberg cube across dataset shapes.
func TestMatchesOracleRandomized(t *testing.T) {
	cases := []struct {
		cfg    gen.Config
		minsup int64
	}{
		{gen.Config{T: 150, D: 4, C: 3, S: 0, Seed: 1}, 1},
		{gen.Config{T: 150, D: 4, C: 3, S: 0, Seed: 2}, 4},
		{gen.Config{T: 200, D: 3, C: 8, S: 2, Seed: 3}, 2},
		{gen.Config{T: 100, D: 5, C: 2, S: 1, Seed: 4}, 3},
		{gen.Config{T: 300, D: 2, C: 20, S: 0.5, Seed: 5}, 5},
		{gen.Config{T: 120, D: 6, C: 2, S: 0, Seed: 6}, 2},
		{gen.Config{T: 80, D: 4, C: 10, S: 3, Seed: 7}, 1},
	}
	for i, c := range cases {
		tb := gen.MustSynthetic(c.cfg)
		want, err := refcube.Closed(tb, c.minsup)
		if err != nil {
			t.Fatal(err)
		}
		got := run(t, tb, c.minsup)
		if diff := sink.DiffCells(got.Cells, want, 8); diff != "" {
			t.Fatalf("case %d mismatch:\n%s", i, diff)
		}
	}
}

// TestHighDependence exercises the closure-extension path heavily: with
// planted functional rules most partitions have shared free dimensions.
func TestHighDependence(t *testing.T) {
	cards := []int{5, 5, 5, 5, 5}
	rules := gen.RulesForDependence(2.5, cards, 23)
	tb := gen.MustSynthetic(gen.Config{T: 250, Cards: cards, S: 0.5, Seed: 24, Rules: rules})
	for _, m := range []int64{1, 4, 16} {
		want, err := refcube.Closed(tb, m)
		if err != nil {
			t.Fatal(err)
		}
		got := run(t, tb, m)
		if diff := sink.DiffCells(got.Cells, want, 8); diff != "" {
			t.Fatalf("min_sup %d mismatch:\n%s", m, diff)
		}
	}
}

// TestOutputsAreUpperBounds: every emitted cell must be its own closure — on
// each wildcard dimension its tuples must NOT share one value.
func TestOutputsAreUpperBounds(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 120, D: 4, C: 3, S: 1, Seed: 30})
	got := run(t, tb, 2)
	for _, cell := range got.Cells {
		for d := range cell.Values {
			if cell.Values[d] != core.Star {
				continue
			}
			var shared core.Value = -9
			same := true
			for tid := 0; tid < tb.NumTuples() && same; tid++ {
				match := true
				for dd, v := range cell.Values {
					if v != core.Star && tb.Cols[dd][tid] != v {
						match = false
						break
					}
				}
				if !match {
					continue
				}
				if shared == -9 {
					shared = tb.Cols[d][tid]
				} else if tb.Cols[d][tid] != shared {
					same = false
				}
			}
			if same {
				t.Fatalf("cell %v is not an upper bound on dim %d", cell, d)
			}
		}
	}
}

func TestErrors(t *testing.T) {
	tb := paperTable(t)
	var c sink.Collector
	if err := Engine.Run(tb, engine.Config{MinSup: 0, Closed: true}, &c); err == nil {
		t.Fatal("min_sup 0 must error")
	}
	if err := Engine.Run(tb, engine.Config{MinSup: 1, Closed: true, Measure: core.MeasureSum}, &c); err == nil {
		t.Fatal("measure without aux must error")
	}
}

func TestAuxMeasure(t *testing.T) {
	tb := paperTable(t)
	tb.Aux = []float64{2, 4, 8}
	var c sink.Collector
	if err := Engine.Run(tb, engine.Config{MinSup: 2, Closed: true, Measure: core.MeasureSum}, &c); err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, cell := range c.Cells {
		byKey[cell.Key()] = cell.Aux
	}
	if byKey[core.CellKey([]core.Value{0, 0, 0, core.Star})] != 6 {
		t.Fatalf("sum of (a1,b1,c1,*) = %v, want 6", byKey)
	}
	if byKey[core.CellKey([]core.Value{0, core.Star, core.Star, core.Star})] != 14 {
		t.Fatalf("sum of (a1,*,*,*) = %v, want 14", byKey)
	}
}

func TestEmptyResultAboveT(t *testing.T) {
	got := run(t, paperTable(t), 4)
	if len(got.Cells) != 0 {
		t.Fatalf("cells above T: %s", sink.FormatCells(got.Cells))
	}
}
