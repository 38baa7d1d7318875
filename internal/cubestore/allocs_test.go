package cubestore

// Steady-state allocation gates for the probe path and the aggregate engine:
// Query and the covering scan behind Lookup must not allocate per operation,
// Aggregate not per row (scratch is pooled per store). The collector is off
// for each measured window, so no GC can empty a pool mid-measurement and the
// counts are exact.

import (
	"runtime/debug"
	"slices"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
)

// allocs is testing.AllocsPerRun with the garbage collector off.
func allocs(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// probeQueries returns a store with three queries: a stored cell (a hit in
// its own cuboid), a cell that only a more specific cell covers, and a miss.
// The last two bind two dimensions, so they also take the candidate merge and
// the covering probes.
func probeQueries(t *testing.T) (*Store, map[string][]core.Value) {
	t.Helper()
	cards := []int{20, 20, 20, 20}
	tbl := testTable(t, 3000, cards, 0.8, 11)
	s := buildFromClosed(t, tbl, 2)
	var own []core.Value
	s.Walk(func(c core.Cell) bool {
		if c.Values[1] != core.Star && c.Values[3] != core.Star {
			own = c.Values
		}
		return own == nil
	})
	var covered []core.Value
	for i := 0; covered == nil && i < tbl.NumTuples(); i++ {
		q := []core.Value{core.Star, tbl.Cols[1][i], core.Star, tbl.Cols[3][i]}
		if c, ok := s.Lookup(q); ok && !slices.Equal(c.Values, q) {
			covered = q
		}
	}
	if own == nil || covered == nil {
		t.Fatal("fixture lost its shape: want a stored cell and a cell only a more specific one covers")
	}
	return s, map[string][]core.Value{
		"own":     own,
		"covered": covered,
		"miss":    {core.Value(cards[0]), core.Star, 0, core.Star},
	}
}

func TestQueryAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the probe path; counts are not meaningful")
	}
	s, queries := probeQueries(t)
	for name, q := range queries {
		if n := allocs(1000, func() { s.Query(q) }); n != 0 {
			t.Fatalf("Query(%s) allocates %v per op; want 0", name, n)
		}
	}
}

func TestLookupAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the probe path; counts are not meaningful")
	}
	s, queries := probeQueries(t)
	for name, q := range queries {
		// A hit allocates only the returned closure cell's values slice,
		// which callers own; a miss materializes nothing.
		want := 1.0
		if _, ok := s.Lookup(q); !ok {
			want = 0
		}
		if n := allocs(1000, func() { s.Lookup(q) }); n != want {
			t.Fatalf("Lookup(%s) allocates %v per op; want %v", name, n, want)
		}
	}
}

// TestAggregateAllocs pins Aggregate's steady-state allocations at a
// constant: the tables, selection vector and keys live in pooled scratch, and
// the result — however many rows — is one cell slice over one value slab.
// What remains is per call: the matchers (and a set predicate's bitmap), the
// key-field plan, enumerate's row-scan slices, and the result. The query has
// the load harness's shape on an iceberg store whose residual is about the
// relation: a range keeping a slice of the tuples, two group-by dimensions,
// hundreds of result rows. The second spec binds two dimensions, so the
// residual selection filters one column by another's survivors.
func TestAggregateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the probe path; counts are not meaningful")
	}
	s := icebergStore(t)
	for _, c := range []struct {
		spec Spec
		want float64
	}{
		{Spec{Preds: []Pred{{Kind: PredRange, Lo: 2, Hi: 6}, {}, {}, {}, {}}}, 8},
		{Spec{Preds: []Pred{{Kind: PredIn, Set: []core.Value{1, 5, 9, 30}}, {}, {}, {Kind: PredRange, Lo: 2, Hi: 19}, {}}}, 10},
	} {
		opt := AggOptions{GroupBy: []int{1, 2}}
		rows := len(s.Aggregate(c.spec, opt))
		if rows < 300 {
			t.Fatalf("only %d result rows; the gate below would not notice per-row allocations", rows)
		}
		if n := allocs(50, func() { s.Aggregate(c.spec, opt) }); n != c.want {
			t.Fatalf("Aggregate allocates %v per op for %d rows; want %v", n, rows, c.want)
		}
	}
}

// icebergStore is a min_sup 4 closed store over 20 000 tuples, with the
// residual attached.
func icebergStore(t *testing.T) *Store {
	t.Helper()
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
	return s
}

// TestResidualMergeAllocs gates the residual merge: it splices the runs
// between the delta's keys, so merging half of a residual's rows back in as
// fresh rows at their keys allocates the output — the residual, its column
// list, nd value columns, counts and aux — and nothing per row or per run.
func TestResidualMergeAllocs(t *testing.T) {
	src := icebergStore(t).res
	var keys [][]byte
	for i := 0; i < src.NumRows(); i += 2 {
		keys = append(keys, src.key(i))
	}
	fresh := src.subset(func(i int) bool { return i%2 == 0 })
	for _, hasAux := range []bool{false, true} {
		var merged *Residual
		var err error
		n := allocs(100, func() { merged, err = spliceResidual(src.nd, hasAux, src, fresh, keys) })
		if err != nil || merged.NumRows() != src.NumRows() {
			t.Fatalf("hasAux=%v: merged %d of %d rows, %v", hasAux, merged.NumRows(), src.NumRows(), err)
		}
		want := float64(src.nd + 3) // the residual, its column list, nd columns, counts
		if hasAux {
			want++
		}
		if n != want {
			t.Fatalf("hasAux=%v: the merge allocates %v times; want %v", hasAux, n, want)
		}
	}
}
