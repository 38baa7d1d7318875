package cubestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// buildFromClosed computes the closed iceberg cube of tbl with QC-DFS and
// freezes it into a store.
func buildFromClosed(t testing.TB, tbl *table.Table, minsup int64) *Store {
	t.Helper()
	col := &sink.Collector{}
	if err := qcdfs.Engine.Run(tbl, engine.Config{MinSup: minsup, Closed: true}, col); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(tbl.NumDims(), false)
	for _, c := range col.Cells {
		b.Add(c.Values, c.Count, 0)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCells() != int64(len(col.Cells)) {
		t.Fatalf("store holds %d cells, built from %d", s.NumCells(), len(col.Cells))
	}
	return s
}

// bruteCount counts the tuples of tbl matching a query pattern.
func bruteCount(tbl *table.Table, vals []core.Value) int64 {
	var n int64
	for tid := 0; tid < tbl.NumTuples(); tid++ {
		ok := true
		for d, v := range vals {
			if v != core.Star && tbl.Cols[d][tid] != v {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}

func testTable(t testing.TB, T int, cards []int, skew float64, seed int64) *table.Table {
	t.Helper()
	tbl, err := gen.Synthetic(gen.Config{T: T, Cards: cards, S: skew, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// randomQuery draws a query cell; bound values are biased toward values that
// actually occur so both hits and misses are exercised.
func randomQuery(rng *rand.Rand, tbl *table.Table) []core.Value {
	nd := tbl.NumDims()
	vals := make([]core.Value, nd)
	for d := 0; d < nd; d++ {
		switch rng.Intn(3) {
		case 0:
			vals[d] = core.Star
		case 1: // a value from a real tuple: likely non-empty
			vals[d] = tbl.Cols[d][rng.Intn(tbl.NumTuples())]
		default: // any in-card value: may be empty
			vals[d] = core.Value(rng.Intn(tbl.Cards[d]))
		}
	}
	return vals
}

// TestQueryAgainstBruteForce fuzzes Query/Lookup against tuple counting:
// every non-empty cell at or above min_sup must resolve to its exact count;
// empty or below-threshold cells must miss.
func TestQueryAgainstBruteForce(t *testing.T) {
	for _, minsup := range []int64{1, 3} {
		tbl := testTable(t, 800, []int{9, 7, 5, 6}, 1.1, int64(minsup))
		s := buildFromClosed(t, tbl, minsup)
		rng := rand.New(rand.NewSource(42 + minsup))
		for i := 0; i < 3000; i++ {
			q := randomQuery(rng, tbl)
			want := bruteCount(tbl, q)
			got, ok := s.Query(q)
			if want >= minsup {
				if !ok || got != want {
					t.Fatalf("minsup=%d query %v: got (%d,%v), want (%d,true)", minsup, q, got, ok, want)
				}
				cell, ok := s.Lookup(q)
				if !ok || cell.Count != want {
					t.Fatalf("minsup=%d lookup %v: got (%v,%v)", minsup, q, cell, ok)
				}
				// The closure must cover the query and have the same count.
				for d, v := range q {
					if v != core.Star && cell.Values[d] != v {
						t.Fatalf("closure %v does not cover query %v", cell.Values, q)
					}
				}
			} else if ok {
				t.Fatalf("minsup=%d query %v: got (%d,true), want miss (count %d)", minsup, q, got, want)
			}
		}
	}
}

// TestSliceMatchesWalkFilter checks Slice against filtering a full Walk.
func TestSliceMatchesWalkFilter(t *testing.T) {
	tbl := testTable(t, 500, []int{6, 5, 4}, 0.8, 17)
	s := buildFromClosed(t, tbl, 1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q := randomQuery(rng, tbl)
		want := map[string]int64{}
		s.Walk(func(c core.Cell) bool {
			for d, v := range q {
				if v != core.Star && c.Values[d] != v {
					return true
				}
			}
			want[c.Key()] = c.Count
			return true
		})
		got := map[string]int64{}
		s.Slice(q, func(c core.Cell) bool {
			got[c.Key()] = c.Count
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("slice %v: %d cells, want %d", q, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("slice %v: count mismatch for %q", q, k)
			}
		}
	}
	// A bound value beyond the largest one stored on its dimension is no
	// cell's: nothing is visited and nothing panics, on a leading dimension
	// (the key prefix) and on a trailing one (the per-row filter) alike.
	for d, card := range tbl.Cards {
		for _, v := range []core.Value{core.Value(card), 1 << 30} {
			q := []core.Value{core.Star, core.Star, core.Star}
			q[d] = v
			s.Slice(q, func(c core.Cell) bool {
				t.Fatalf("slice %v visited %v", q, c.Values)
				return false
			})
		}
	}
}

// setReads is one draw of the set-valued reads — Slice, Select and
// Aggregate — with their sequential answers.
type setReads struct {
	q    []core.Value
	spec Spec
	opt  AggOptions
	want string
}

func (r *setReads) read(s *Store) string {
	var b strings.Builder
	visit := func(c core.Cell) bool {
		fmt.Fprint(&b, c, ";")
		return true
	}
	s.Slice(r.q, visit)
	b.WriteString("|")
	s.Select(r.spec, visit)
	fmt.Fprint(&b, "|", s.Aggregate(r.spec, r.opt))
	return b.String()
}

// TestConcurrentQueries runs the whole read API — Query, Lookup, Slice,
// Select and Aggregate — from many goroutines on one store (measure and
// residual attached) and checks every answer. Run under -race it pins the
// concurrency-safety claim; the store's Save image must also be
// byte-identical before and after, which pins the immutability claim.
func TestConcurrentQueries(t *testing.T) {
	cards := []int{8, 6, 5, 4}
	tbl := testTable(t, 600, cards, 1.0, 3)
	s := buildWithResidual(t, tbl, 2, core.MeasureSum)
	before := storeBytes(t, s)
	rng := rand.New(rand.NewSource(99))
	sets := make([]setReads, 40)
	for i := range sets {
		r := &sets[i]
		r.q, r.spec = randomQuery(rng, tbl), randomSpec(rng, cards)
		r.opt = AggOptions{GroupBy: drawGroupBy(rng, len(cards), nil, false)}
		r.want = r.read(s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				q := randomQuery(rng, tbl)
				want := bruteCount(tbl, q)
				got, ok := s.Query(q)
				c, found := s.Lookup(q)
				if want >= 2 && (!ok || got != want || !found || c.Count != want) {
					t.Errorf("query %v: Query (%d,%v), Lookup (%d,%v), want (%d,true)", q, got, ok, c.Count, found, want)
					return
				}
				if want < 2 && (ok || found) {
					t.Errorf("query %v: Query (%d,%v), Lookup (%d,%v), want a miss", q, got, ok, c.Count, found)
					return
				}
				if r := &sets[rng.Intn(len(sets))]; r.read(s) != r.want {
					t.Errorf("slice %v / select and aggregate %v group-by %v: concurrent answer differs from the sequential one", r.q, r.spec.Preds, r.opt.GroupBy)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if !bytes.Equal(storeBytes(t, s), before) {
		t.Fatal("concurrent reads changed the store's Save image")
	}
}

// TestRetainedResults checks that results already handed out are never
// recycled: every result of Lookup, Slice, Select and Aggregate still equals
// its first reading after many later calls on the same store. The collector
// is off, so the store's pooled scratch survives between calls and each call
// reuses the last one's; a result backed by it would be overwritten.
func TestRetainedResults(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cards := []int{8, 6, 5, 4}
	tbl := testTable(t, 600, cards, 1.0, 3)
	s := buildWithResidual(t, tbl, 2, core.MeasureSum)
	type reading struct {
		call      string
		got, want []core.Cell
	}
	var held []reading
	hold := func(call string, got []core.Cell) {
		want := slices.Clone(got)
		for i := range want {
			want[i].Values = slices.Clone(want[i].Values)
		}
		held = append(held, reading{call, got, want})
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		q, spec := randomQuery(rng, tbl), randomSpec(rng, cards)
		if c, ok := s.Lookup(q); ok {
			hold("Lookup", []core.Cell{c})
		}
		var cells []core.Cell
		s.Slice(q, func(c core.Cell) bool {
			cells = append(cells, c)
			return true
		})
		hold("Slice", cells)
		cells = nil
		s.Select(spec, func(c core.Cell) bool {
			cells = append(cells, c)
			return true
		})
		hold("Select", cells)
		hold("Aggregate", s.Aggregate(spec, AggOptions{GroupBy: drawGroupBy(rng, len(cards), nil, false)}))
	}
	for i, r := range held {
		if !reflect.DeepEqual(r.got, r.want) {
			t.Fatalf("%s result %d of %d changed after later calls: now %v, first read %v", r.call, i, len(held), r.got, r.want)
		}
	}
}

// TestBuilderRejectsDuplicates pins the duplicate-cell error.
func TestBuilderRejectsDuplicates(t *testing.T) {
	b := NewBuilder(2, false)
	b.Add([]core.Value{1, core.Star}, 3, 0)
	b.Add([]core.Value{1, core.Star}, 3, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate cell must fail Build")
	}
}

// TestSnapshotRoundTrip checks Save → Load → Save byte identity and that the
// loaded store answers identically.
func TestSnapshotRoundTrip(t *testing.T) {
	tbl := testTable(t, 700, []int{7, 6, 5, 4}, 1.2, 11)
	// Include aux values to cover the measure arrays.
	col := &sink.Collector{}
	if err := qcdfs.Engine.Run(tbl, engine.Config{MinSup: 2, Closed: true}, col); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(tbl.NumDims(), true)
	for i, c := range col.Cells {
		b.Add(c.Values, c.Count, float64(i)*0.5)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var buf1 bytes.Buffer
	if err := s.Save(&buf1); err != nil {
		t.Fatal(err)
	}
	loaded, err := openCopy(buf1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("snapshot not byte-identical after round trip (%d vs %d bytes)", buf1.Len(), buf2.Len())
	}
	if loaded.NumCells() != s.NumCells() || loaded.NumDims() != s.NumDims() || !loaded.HasAux() {
		t.Fatalf("loaded store shape mismatch")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		q := randomQuery(rng, tbl)
		c1, ok1 := s.Lookup(q)
		c2, ok2 := loaded.Lookup(q)
		if ok1 != ok2 || c1.Count != c2.Count || c1.Aux != c2.Aux {
			t.Fatalf("query %v: original (%v,%v), loaded (%v,%v)", q, c1, ok1, c2, ok2)
		}
	}
}

// TestSnapshotHighDimensionMask round-trips a 64-dimension store whose masks
// set the top bit (dimension 63) — the unsigned mask-ordering edge.
func TestSnapshotHighDimensionMask(t *testing.T) {
	b := NewBuilder(core.MaxDims, false)
	vals := make([]core.Value, core.MaxDims)
	for d := range vals {
		vals[d] = core.Star
	}
	b.Add(vals, 5, 0) // apex
	vals[core.MaxDims-1] = 1
	b.Add(vals, 3, 0) // fixes dimension 63: mask top bit set
	vals[0] = 2
	b.Add(vals, 2, 0)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := openCopy(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := loaded.Query(vals); !ok || got != 2 {
		t.Fatalf("dim-63 cell = (%d,%v), want (2,true)", got, ok)
	}
	vals[0] = core.Star
	if got, ok := loaded.Query(vals); !ok || got != 3 {
		t.Fatalf("dim-63-only cell = (%d,%v), want (3,true)", got, ok)
	}
}

// TestSnapshotCorruption checks truncation and bit flips are detected.
func TestSnapshotCorruption(t *testing.T) {
	tbl := testTable(t, 300, []int{5, 4, 3}, 0.5, 2)
	s := buildFromClosed(t, tbl, 1)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := openCopy(raw[:len(raw)/2]); err == nil {
		t.Fatal("truncated snapshot must fail")
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := openCopy(flipped); err == nil {
		t.Fatal("corrupted snapshot must fail")
	}
	bad := append([]byte(nil), raw...)
	bad[7] = 99 // version byte
	if _, err := openCopy(bad); err == nil {
		t.Fatal("unknown version must fail")
	}
}

// TestSnapshotEveryByteFlip flips each snapshot byte in turn: every mutation
// must yield an error (CRC32 catches any single-byte change), and none may
// panic — corrupt sizes must fail validation, not makeslice. Every truncation
// and a trailing byte must fail too: no byte of the file goes unchecked.
func TestSnapshotEveryByteFlip(t *testing.T) {
	tbl := testTable(t, 200, []int{5, 4, 3}, 0.7, 8)
	rejectEveryCorruption(t, storeBytes(t, buildFromClosed(t, tbl, 1)))
}

func TestQueryShapeMismatch(t *testing.T) {
	tbl := testTable(t, 100, []int{4, 3}, 0, 1)
	s := buildFromClosed(t, tbl, 1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s with wrong arity must panic", name)
			}
		}()
		f()
	}
	mustPanic("Query", func() { s.Query([]core.Value{0}) })
	mustPanic("Lookup", func() { s.Lookup([]core.Value{0, 1, 2}) })
	mustPanic("Slice", func() { s.Slice([]core.Value{0}, func(core.Cell) bool { return true }) })
}

func ExampleStore_Query() {
	tbl, _ := table.FromRows([][]core.Value{
		{0, 0, 1},
		{0, 1, 1},
		{1, 0, 1},
	})
	col := &sink.Collector{}
	_ = qcdfs.Engine.Run(tbl, engine.Config{MinSup: 1, Closed: true}, col)
	b := NewBuilder(3, false)
	for _, c := range col.Cells {
		b.Add(c.Values, c.Count, 0)
	}
	s, _ := b.Build()
	// (0, *, *) is not closed: every matching tuple has 1 on dim 2, so its
	// closure is (0, *, 1) — same count, resolved by the covering probe.
	count, ok := s.Query([]core.Value{0, core.Star, core.Star})
	fmt.Println(count, ok)
	// Output: 2 true
}
