package buc

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
	if err := Engine.Run(tb, engine.Config{MinSup: minsup}, d); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d.Dup != 0 {
		t.Fatalf("BUC emitted %d duplicate cells", d.Dup)
	}
	return &c
}

func TestMatchesOracleSmall(t *testing.T) {
	tb, err := table.FromRows([][]core.Value{
		{0, 0, 0, 0},
		{0, 0, 0, 2},
		{0, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int64{1, 2, 3} {
		want, err := refcube.Iceberg(tb, m)
		if err != nil {
			t.Fatal(err)
		}
		got := run(t, tb, m)
		if diff := sink.DiffCells(got.Cells, want, 10); diff != "" {
			t.Fatalf("min_sup %d mismatch:\n%s", m, diff)
		}
	}
}

// TestMatchesOracleRandomized sweeps dataset shapes: skew, cardinality,
// dependence, and min_sup, comparing against the definitional oracle.
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
	}
	for i, c := range cases {
		tb := gen.MustSynthetic(c.cfg)
		want, err := refcube.Iceberg(tb, c.minsup)
		if err != nil {
			t.Fatal(err)
		}
		got := run(t, tb, c.minsup)
		if diff := sink.DiffCells(got.Cells, want, 8); diff != "" {
			t.Fatalf("case %d mismatch:\n%s", i, diff)
		}
	}
}

func TestWithDependenceRules(t *testing.T) {
	cards := []int{4, 4, 4, 4}
	rules := gen.RulesForDependence(1.5, cards, 17)
	tb := gen.MustSynthetic(gen.Config{T: 200, Cards: cards, S: 0, Seed: 18, Rules: rules})
	want, err := refcube.Iceberg(tb, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := run(t, tb, 4)
	if diff := sink.DiffCells(got.Cells, want, 8); diff != "" {
		t.Fatalf("mismatch:\n%s", diff)
	}
}

func TestMinsupAboveTotal(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 10, D: 2, C: 2, Seed: 1})
	got := run(t, tb, 11)
	if len(got.Cells) != 0 {
		t.Fatalf("expected no cells, got %d", len(got.Cells))
	}
}

func TestErrors(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 10, D: 2, C: 2, Seed: 1})
	var c sink.Collector
	if err := Engine.Run(tb, engine.Config{MinSup: 0}, &c); err == nil {
		t.Fatal("min_sup 0 must error")
	}
	if err := Engine.Run(tb, engine.Config{MinSup: 1, Measure: core.MeasureSum}, &c); err == nil {
		t.Fatal("measure without aux column must error")
	}
	bad := table.New(1, 2)
	bad.Cols[0][0] = 9 // out of card range
	if err := Engine.Run(bad, engine.Config{MinSup: 1}, &c); err == nil {
		t.Fatal("invalid table must error")
	}
}

func TestAuxMeasureSum(t *testing.T) {
	tb, err := table.FromRows([][]core.Value{{0, 0}, {0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Aux = []float64{10, 20, 40}
	var c sink.Collector
	if err := Engine.Run(tb, engine.Config{MinSup: 1, Measure: core.MeasureSum}, &c); err != nil {
		t.Fatalf("Run: %v", err)
	}
	byKey := map[string]float64{}
	for _, cell := range c.Cells {
		byKey[cell.Key()] = cell.Aux
	}
	checks := map[string]float64{
		core.CellKey([]core.Value{core.Star, core.Star}): 70,
		core.CellKey([]core.Value{0, core.Star}):         30,
		core.CellKey([]core.Value{core.Star, 0}):         50,
		core.CellKey([]core.Value{0, 1}):                 20,
	}
	for k, want := range checks {
		if byKey[k] != want {
			t.Fatalf("aux for key: got %v want %v", byKey[k], want)
		}
	}
}

func TestAuxMeasureAvg(t *testing.T) {
	tb, err := table.FromRows([][]core.Value{{0}, {0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	tb.Aux = []float64{1, 3, 5}
	var c sink.Collector
	if err := Engine.Run(tb, engine.Config{MinSup: 1, Measure: core.MeasureAvg}, &c); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Avg is delivered as its algebraic pair: Aux carries the stored sum,
	// Count the divisor. The mean of (0) is (1+3)/2 = 2.
	for _, cell := range c.Cells {
		if cell.Key() == core.CellKey([]core.Value{0}) {
			if mean := core.Present(core.MeasureAvg, cell.Aux, cell.Count); mean != 2 {
				t.Fatalf("avg of (0) = %v, want 2", mean)
			}
		}
	}
}

// TestCountsConsistency: parent cell count equals the sum of child counts on
// any one expansion dimension when min_sup is 1 (no pruning).
func TestCountsConsistency(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 150, D: 3, C: 4, S: 1, Seed: 20})
	got := run(t, tb, 1)
	m, ok := got.ByKey()
	if !ok {
		t.Fatal("duplicate cells")
	}
	apex := m[core.CellKey([]core.Value{core.Star, core.Star, core.Star})]
	if apex != 150 {
		t.Fatalf("apex = %d", apex)
	}
	var sum int64
	for v := 0; v < tb.Cards[0]; v++ {
		sum += m[core.CellKey([]core.Value{core.Value(v), core.Star, core.Star})]
	}
	if sum != 150 {
		t.Fatalf("dim-0 children sum = %d", sum)
	}
}
