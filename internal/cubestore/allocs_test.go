package cubestore

// Steady-state allocation regression tests for the probe path and the
// aggregate engine: Query and the covering scan behind Lookup must not
// allocate per operation, Aggregate not per row (scratch is pooled per
// store). Bounds allow a fraction of an alloc per op because a GC pass can
// empty the sync.Pool mid-measurement.

import (
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
)

func TestQueryAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the probe path; counts are not meaningful")
	}
	cards := []int{8, 6, 5, 4}
	tbl := testTable(t, 3000, cards, 0.8, 11)
	s := buildFromClosed(t, tbl, 2)

	hit := []core.Value{tbl.Cols[0][0], core.Star, tbl.Cols[2][0], core.Star}
	miss := []core.Value{core.Value(cards[0]), core.Star, core.Star, core.Star}
	s.Query(hit)
	s.Query(miss)

	if n := testing.AllocsPerRun(1000, func() { s.Query(hit) }); n > 0.5 {
		t.Fatalf("Query(hit) allocates %v per op; want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Query(miss) }); n > 0.5 {
		t.Fatalf("Query(miss) allocates %v per op; want 0", n)
	}
}

func TestLookupAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the probe path; counts are not meaningful")
	}
	cards := []int{8, 6, 5, 4}
	tbl := testTable(t, 3000, cards, 0.8, 11)
	s := buildFromClosed(t, tbl, 2)

	// A miss never materializes a result cell, so the whole covering scan
	// must be allocation-free.
	miss := []core.Value{core.Value(cards[0]), core.Star, core.Star, core.Star}
	s.Lookup(miss)
	if n := testing.AllocsPerRun(1000, func() { s.Lookup(miss) }); n > 0.5 {
		t.Fatalf("Lookup(miss) allocates %v per op; want 0", n)
	}

	// A hit allocates only the returned closure cell (its values slice),
	// which callers own — the probe machinery itself adds nothing.
	hit := []core.Value{tbl.Cols[0][0], core.Star, core.Star, core.Star}
	if _, ok := s.Lookup(hit); !ok {
		t.Fatal("expected a stored covering cell")
	}
	if n := testing.AllocsPerRun(1000, func() { s.Lookup(hit) }); n > 2.5 {
		t.Fatalf("Lookup(hit) allocates %v per op; want <= 2 (the returned cell)", n)
	}
}

// TestAggregateAllocs bounds Aggregate's steady-state allocations at a
// constant: the tables, selection vector and keys live in pooled scratch, and
// the result — however many rows — is one cell slice over one value slab. The
// query has the load harness's shape on an iceberg store whose residual is
// about the relation: a range keeping a slice of the tuples, two group-by
// dimensions, hundreds of result rows.
func TestAggregateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the probe path; counts are not meaningful")
	}
	cards := []int{40, 30, 30, 20, 10}
	tbl := testTable(t, 20000, cards, 1.0, 29)
	col := &sink.Collector{}
	if err := qcdfs.Engine.Run(tbl, engine.Config{MinSup: 4, Closed: true}, col); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(tbl.NumDims(), false)
	for _, c := range col.Cells {
		b.Add(c.Values, c.Count, 0)
	}
	if err := b.SetResidual(ComputeResidual(tbl.Cols, nil, 4, core.MeasureNone)); err != nil {
		t.Fatal(err)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{
		{Preds: []Pred{{Kind: PredRange, Lo: 2, Hi: 6}, {}, {}, {}, {}}},
		{Preds: []Pred{{Kind: PredIn, Set: []core.Value{1, 5, 9, 30}}, {}, {}, {}, {}}},
	} {
		opt := AggOptions{GroupBy: []int{1, 2}}
		rows := len(s.Aggregate(spec, opt))
		if rows < 300 {
			t.Fatalf("only %d result rows; the bound below would not notice per-row allocations", rows)
		}
		if n := testing.AllocsPerRun(50, func() { s.Aggregate(spec, opt) }); n > 16 {
			t.Fatalf("Aggregate allocates %v per op for %d rows; want a constant (<= 16)", n, rows)
		}
	}
}
