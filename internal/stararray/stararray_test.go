package stararray

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
		t.Fatalf("StarArray emitted %d duplicate cells", d.Dup)
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
	// High cardinality relative to T: lots of pools.
	{gen.Config{T: 200, D: 4, C: 25, S: 0, Seed: 10}, 3},
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

func TestPruningNeutral(t *testing.T) {
	variants := []engine.Config{
		{Closed: true, DisableLemma5: true},
		{Closed: true, DisableLemma6: true},
		{Closed: true, DisableLemma5: true, DisableLemma6: true},
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

// TestPoolsSortedInvariant verifies the structural invariant of Sec. 4.1:
// every pool is sorted by the tree's remaining dimensions.
func TestPoolsSortedInvariant(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 300, D: 4, C: 12, S: 1, Seed: 77})
	tr := buildBase(tb, 5, true, core.MeasureNone, nil)
	var walk func(n *saNode, l int)
	walk = func(n *saNode, l int) {
		if n.isPool {
			dims := tr.dims[l:]
			for i := 1; i < len(n.pool); i++ {
				a, b := n.pool[i-1], n.pool[i]
				for _, d := range dims {
					va, vb := tb.Cols[d][a], tb.Cols[d][b]
					if va < vb {
						break
					}
					if va > vb {
						t.Fatalf("pool not sorted at level %d: tids %d,%d on dim %d", l, a, b, d)
					}
				}
			}
			if int64(len(n.pool)) >= 5 {
				t.Fatalf("pool leaf with count %d >= min_sup", len(n.pool))
			}
			return
		}
		for _, s := range n.sonSlice() {
			walk(s, l+1)
		}
	}
	walk(tr.root, 0)
}

// TestSonsSortedInvariant: internal nodes keep sons sorted by value, which
// the merge construction relies on.
func TestSonsSortedInvariant(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 300, D: 4, C: 8, S: 1, Seed: 78})
	tr := buildBase(tb, 3, true, core.MeasureNone, nil)
	var walk func(n *saNode)
	walk = func(n *saNode) {
		sons := n.sonSlice()
		if int32(len(sons)) != n.nsons {
			t.Fatalf("nsons=%d but chain has %d", n.nsons, len(sons))
		}
		for i := 1; i < len(sons); i++ {
			if sons[i-1].val >= sons[i].val {
				t.Fatalf("sons out of order: %d then %d", sons[i-1].val, sons[i].val)
			}
		}
		for _, s := range sons {
			walk(s)
		}
	}
	walk(tr.root)
}

// TestMinsupOneHasNoPools: the paper notes StarArray with min_sup 1 is
// identical to a star tree — no truncation can occur.
func TestMinsupOneHasNoPools(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 100, D: 3, C: 10, S: 0, Seed: 79})
	tr := buildBase(tb, 1, false, core.MeasureNone, nil)
	var walk func(n *saNode)
	walk = func(n *saNode) {
		if n.isPool {
			t.Fatal("pool found at min_sup 1")
		}
		for _, s := range n.sonSlice() {
			walk(s)
		}
	}
	walk(tr.root)
}

func TestDependenceData(t *testing.T) {
	cards := []int{5, 5, 5, 5, 5}
	rules := gen.RulesForDependence(2, cards, 81)
	tb := gen.MustSynthetic(gen.Config{T: 300, Cards: cards, S: 0.5, Seed: 82, Rules: rules})
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

// TestAgreesWithDuplicates: duplicate-heavy data exercises full-depth leaf
// groups.
func TestAgreesWithDuplicates(t *testing.T) {
	rows := [][]core.Value{}
	for i := 0; i < 40; i++ {
		rows = append(rows, []core.Value{core.Value(i % 2), core.Value(i % 4), 2})
	}
	tb, err := table.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, minsup := range []int64{1, 5, 11} {
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
