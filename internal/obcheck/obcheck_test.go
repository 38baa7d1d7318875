package obcheck

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
		t.Fatalf("OB-BUC emitted %d duplicate cells", d.Dup)
	}
	return &c
}

func TestMatchesOracleRandomized(t *testing.T) {
	cases := []struct {
		cfg    gen.Config
		minsup int64
	}{
		{gen.Config{T: 150, D: 4, C: 3, S: 0, Seed: 1}, 1},
		{gen.Config{T: 150, D: 4, C: 3, S: 0, Seed: 2}, 4},
		{gen.Config{T: 200, D: 3, C: 8, S: 2, Seed: 3}, 2},
		{gen.Config{T: 100, D: 5, C: 2, S: 1, Seed: 4}, 3},
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

func TestPaperExample1(t *testing.T) {
	tb, err := table.FromRows([][]core.Value{
		{0, 0, 0, 0},
		{0, 0, 0, 2},
		{0, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := run(t, tb, 2)
	m, _ := got.ByKey()
	if len(m) != 2 ||
		m[core.CellKey([]core.Value{0, 0, 0, core.Star})] != 2 ||
		m[core.CellKey([]core.Value{0, core.Star, core.Star, core.Star})] != 3 {
		t.Fatalf("cells:\n%s", sink.FormatCells(got.Cells))
	}
}

// TestIndexGrowsWithOutput verifies the cost profile the paper criticizes:
// the index retains every closed cell.
func TestIndexGrowsWithOutput(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 200, D: 4, C: 4, S: 1, Seed: 9})
	var c sink.Collector
	st := cubeStats(tb, engine.Config{MinSup: 1, Closed: true}, &c)
	if st.IndexedCells != int64(len(c.Cells)) {
		t.Fatalf("indexed %d cells, emitted %d", st.IndexedCells, len(c.Cells))
	}
	if st.IndexProbes == 0 {
		t.Fatal("expected subsumption probes")
	}
}

func TestErrors(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 10, D: 2, C: 2, Seed: 1})
	var c sink.Collector
	if err := Engine.Run(tb, engine.Config{MinSup: 0, Closed: true}, &c); err == nil {
		t.Fatal("min_sup 0 must error")
	}
	if got := run(t, tb, 11); len(got.Cells) != 0 {
		t.Fatal("min_sup above T must produce nothing")
	}
}
