package mmcubing

import (
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/refcube"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

func run(t *testing.T, tb *table.Table, cfg engine.Config) *sink.Collector {
	t.Helper()
	var c sink.Collector
	d := &sink.Dedup{Next: &c}
	if err := Engine.Run(tb, cfg, d); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d.Dup != 0 {
		t.Fatalf("MM-Cubing emitted %d duplicate cells", d.Dup)
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

var oracleCases = []struct {
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
	{gen.Config{T: 250, D: 4, C: 6, S: 1.5, Seed: 8}, 6},
}

// TestIcebergMatchesOracle: plain MM-Cubing must produce exactly the iceberg
// cube across dataset shapes.
func TestIcebergMatchesOracle(t *testing.T) {
	for i, c := range oracleCases {
		tb := gen.MustSynthetic(c.cfg)
		want, err := refcube.Iceberg(tb, c.minsup)
		if err != nil {
			t.Fatal(err)
		}
		got := run(t, tb, engine.Config{MinSup: c.minsup})
		if diff := sink.DiffCells(got.Cells, want, 8); diff != "" {
			t.Fatalf("case %d mismatch:\n%s", i, diff)
		}
	}
}

// TestClosedMatchesOracle: C-Cubing(MM) must produce exactly the closed
// iceberg cube.
func TestClosedMatchesOracle(t *testing.T) {
	for i, c := range oracleCases {
		tb := gen.MustSynthetic(c.cfg)
		want, err := refcube.Closed(tb, c.minsup)
		if err != nil {
			t.Fatal(err)
		}
		got := run(t, tb, engine.Config{MinSup: c.minsup, Closed: true})
		if diff := sink.DiffCells(got.Cells, want, 8); diff != "" {
			t.Fatalf("case %d mismatch:\n%s", i, diff)
		}
	}
}

// TestClosedShortcutNeutral: the partition==min_sup shortcut must not change
// the output, only the work done.
func TestClosedShortcutNeutral(t *testing.T) {
	for i, c := range oracleCases {
		tb := gen.MustSynthetic(c.cfg)
		fast := run(t, tb, engine.Config{MinSup: c.minsup, Closed: true})
		slow := run(t, tb, engine.Config{MinSup: c.minsup, Closed: true, DisableShortcut: true})
		if diff := sink.DiffCells(fast.Cells, slow.Sorted(), 8); diff != "" {
			t.Fatalf("case %d shortcut changed output:\n%s", i, diff)
		}
	}
}

// TestTinyDenseBudget forces nearly everything through the sparse recursion;
// output must be unchanged.
func TestTinyDenseBudget(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 200, D: 4, C: 4, S: 1, Seed: 9})
	for _, minsup := range []int64{1, 3} {
		want, err := refcube.Closed(tb, minsup)
		if err != nil {
			t.Fatal(err)
		}
		got := run(t, tb, engine.Config{MinSup: minsup, Closed: true, DenseBudget: 2})
		if diff := sink.DiffCells(got.Cells, want, 8); diff != "" {
			t.Fatalf("min_sup %d mismatch:\n%s", minsup, diff)
		}
		wantIce, err := refcube.Iceberg(tb, minsup)
		if err != nil {
			t.Fatal(err)
		}
		gotIce := run(t, tb, engine.Config{MinSup: minsup, DenseBudget: 2})
		if diff := sink.DiffCells(gotIce.Cells, wantIce, 8); diff != "" {
			t.Fatalf("iceberg min_sup %d mismatch:\n%s", minsup, diff)
		}
	}
}

// TestHugeDenseBudget pushes everything through the dense MultiWay arrays.
func TestHugeDenseBudget(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 200, D: 4, C: 4, S: 0, Seed: 10})
	want, err := refcube.Closed(tb, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := run(t, tb, engine.Config{MinSup: 1, Closed: true, DenseBudget: 1 << 22})
	if diff := sink.DiffCells(got.Cells, want, 8); diff != "" {
		t.Fatalf("mismatch:\n%s", diff)
	}
}

func TestPaperExample1(t *testing.T) {
	got := run(t, paperTable(t), engine.Config{MinSup: 2, Closed: true})
	if len(got.Cells) != 2 {
		t.Fatalf("cells:\n%s", sink.FormatCells(got.Cells))
	}
	m, _ := got.ByKey()
	if m[core.CellKey([]core.Value{0, 0, 0, core.Star})] != 2 ||
		m[core.CellKey([]core.Value{0, core.Star, core.Star, core.Star})] != 3 {
		t.Fatalf("wrong closed cells:\n%s", sink.FormatCells(got.Cells))
	}
}

func TestDependenceData(t *testing.T) {
	cards := []int{5, 5, 5, 5, 5}
	rules := gen.RulesForDependence(2, cards, 31)
	tb := gen.MustSynthetic(gen.Config{T: 300, Cards: cards, S: 0.5, Seed: 32, Rules: rules})
	for _, minsup := range []int64{1, 8} {
		want, err := refcube.Closed(tb, minsup)
		if err != nil {
			t.Fatal(err)
		}
		got := run(t, tb, engine.Config{MinSup: minsup, Closed: true})
		if diff := sink.DiffCells(got.Cells, want, 8); diff != "" {
			t.Fatalf("min_sup %d:\n%s", minsup, diff)
		}
	}
}

func TestErrors(t *testing.T) {
	tb := paperTable(t)
	var c sink.Collector
	if err := Engine.Run(tb, engine.Config{MinSup: 0}, &c); err == nil {
		t.Fatal("min_sup 0 must error")
	}
	bad := table.New(1, 2)
	bad.Cols[0][0] = 9
	if err := Engine.Run(bad, engine.Config{MinSup: 1}, &c); err == nil {
		t.Fatal("invalid table must error")
	}
}

func TestMinsupAboveTotal(t *testing.T) {
	got := run(t, paperTable(t), engine.Config{MinSup: 4, Closed: true})
	if len(got.Cells) != 0 {
		t.Fatalf("cells above T:\n%s", sink.FormatCells(got.Cells))
	}
}
