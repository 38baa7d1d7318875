package startree

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
		t.Fatalf("Star-Cubing emitted %d duplicate cells", d.Dup)
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
	{gen.Config{T: 400, D: 3, C: 30, S: 1, Seed: 9}, 7},
}

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

// TestPruningNeutral: Lemma 5/6 pruning and star reduction must never change
// the output, only the work performed.
func TestPruningNeutral(t *testing.T) {
	variants := []engine.Config{
		{Closed: true, DisableLemma5: true},
		{Closed: true, DisableLemma6: true},
		{Closed: true, DisableLemma5: true, DisableLemma6: true},
		{Closed: true, NoStarReduction: true},
	}
	for i, c := range oracleCases {
		tb := gen.MustSynthetic(c.cfg)
		baseline := run(t, tb, engine.Config{MinSup: c.minsup, Closed: true})
		for vi, v := range variants {
			v.MinSup = c.minsup
			got := run(t, tb, v)
			if diff := sink.DiffCells(got.Cells, baseline.Cells, 8); diff != "" {
				t.Fatalf("case %d variant %d changed output:\n%s", i, vi, diff)
			}
		}
		// Star reduction neutrality for plain iceberg cubing too.
		icebergBase := run(t, tb, engine.Config{MinSup: c.minsup})
		icebergNoStar := run(t, tb, engine.Config{MinSup: c.minsup, NoStarReduction: true})
		if diff := sink.DiffCells(icebergNoStar.Cells, icebergBase.Cells, 8); diff != "" {
			t.Fatalf("case %d star reduction changed iceberg output:\n%s", i, diff)
		}
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
	rules := gen.RulesForDependence(2, cards, 41)
	tb := gen.MustSynthetic(gen.Config{T: 300, Cards: cards, S: 0.5, Seed: 42, Rules: rules})
	for _, minsup := range []int64{1, 4, 16} {
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

func TestSingleDimension(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 100, D: 1, C: 5, S: 1, Seed: 50})
	for _, minsup := range []int64{1, 10} {
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

func TestDuplicateTuples(t *testing.T) {
	rows := [][]core.Value{}
	for i := 0; i < 30; i++ {
		rows = append(rows, []core.Value{core.Value(i % 2), core.Value(i % 3), 1})
	}
	tb, err := table.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, minsup := range []int64{1, 5} {
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

// TestHeavyStarReduction uses a shape where most values fall below min_sup,
// exercising star nodes against the closedness machinery.
func TestHeavyStarReduction(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 120, D: 3, C: 40, S: 0, Seed: 60})
	for _, minsup := range []int64{2, 4, 8} {
		wantClosed, err := refcube.Closed(tb, minsup)
		if err != nil {
			t.Fatal(err)
		}
		gotClosed := run(t, tb, engine.Config{MinSup: minsup, Closed: true})
		if diff := sink.DiffCells(gotClosed.Cells, wantClosed, 8); diff != "" {
			t.Fatalf("closed min_sup %d:\n%s", minsup, diff)
		}
		wantIce, err := refcube.Iceberg(tb, minsup)
		if err != nil {
			t.Fatal(err)
		}
		gotIce := run(t, tb, engine.Config{MinSup: minsup})
		if diff := sink.DiffCells(gotIce.Cells, wantIce, 8); diff != "" {
			t.Fatalf("iceberg min_sup %d:\n%s", minsup, diff)
		}
	}
}
