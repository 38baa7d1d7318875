package cubestore

import (
	"bytes"
	"math/rand"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// closedCells computes the closed iceberg cube of tbl with QC-DFS.
func closedCells(t testing.TB, tbl *table.Table, minsup int64) []core.Cell {
	t.Helper()
	col := &sink.Collector{}
	if err := qcdfs.Engine.Run(tbl, engine.Config{MinSup: minsup, Closed: true}, col); err != nil {
		t.Fatal(err)
	}
	return col.Cells
}

// freshBuilder accumulates replacement cells the way a refresh does: straight
// into a Builder, which MergePartitions consumes.
func freshBuilder(nd int, hasAux bool, cells ...core.Cell) *Builder {
	b := NewBuilder(nd, hasAux)
	for _, c := range cells {
		b.Add(c.Values, c.Count, c.Aux)
	}
	return b
}

// storeBytes canonicalizes a store as its snapshot bytes.
func storeBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergePartitionsMatchesRebuild fuzzes the merge constructor: the closed
// cube of a grown relation assembled by merging (retained cells of untouched
// partitions + recomputed cells of touched partitions and of the wildcard
// slice, all of it or only the cells the appended rows match) must be
// byte-identical to the store built from scratch.
func TestMergePartitionsMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, minsup := range []int64{1, 3} {
		for trial := 0; trial < 10; trial++ {
			cards := []int{4 + rng.Intn(5), 5, 4, 3}
			nd := len(cards)
			dim := 0
			base := testTable(t, 300+rng.Intn(200), cards, 0.8, int64(trial+10*int(minsup)))

			// Grow the relation: appended tuples touch a strict subset of the
			// leading-dimension partitions (including possibly a new value).
			touched := map[core.Value]bool{core.Value(rng.Intn(cards[dim])): true}
			if rng.Intn(2) == 0 {
				touched[core.Value(cards[dim])] = true // brand-new partition
			}
			var touchedVals []core.Value
			for v := range touched {
				touchedVals = append(touchedVals, v)
			}
			nDelta := 30 + rng.Intn(40)
			full := table.New(nd, base.NumTuples()+nDelta)
			copy(full.Names, base.Names)
			for d := 0; d < nd; d++ {
				copy(full.Cols[d], base.Cols[d])
			}
			for i := 0; i < nDelta; i++ {
				tid := base.NumTuples() + i
				full.Cols[dim][tid] = touchedVals[rng.Intn(len(touchedVals))]
				for d := 1; d < nd; d++ {
					full.Cols[d][tid] = core.Value(rng.Intn(cards[d]))
				}
			}
			copy(full.Cards, cards)
			full.Cards[dim]++ // room for the brand-new partition

			// From-scratch store of the full relation: the reference.
			fullCells := closedCells(t, full, minsup)
			rb := NewBuilder(nd, false)
			for _, c := range fullCells {
				rb.Add(c.Values, c.Count, 0)
			}
			want, err := rb.Build()
			if err != nil {
				t.Fatal(err)
			}

			// Merge path: old store + the full relation's cells restricted to
			// replaced partitions and either the whole wildcard slice (nil
			// delta) or its cells the appended rows match.
			delta := make([]core.Value, 0, nDelta*nd)
			for tid := base.NumTuples(); tid < full.NumTuples(); tid++ {
				delta = append(delta, full.Row(core.TID(tid), nil)...)
			}
			matched := func(vals []core.Value) bool {
				for r := 0; r < nDelta; r++ {
					hit := true
					for d, v := range vals {
						hit = hit && (v == core.Star || v == delta[r*nd+d])
					}
					if hit {
						return true
					}
				}
				return false
			}
			for _, delta := range [][]core.Value{nil, delta} {
				old := buildFromClosed(t, base, minsup)
				fresh := NewBuilder(nd, false)
				for _, c := range fullCells {
					if v := c.Values[dim]; v == core.Star && (delta == nil || matched(c.Values)) || v != core.Star && touched[v] {
						fresh.Add(c.Values, c.Count, 0)
					}
				}
				got, err := old.MergePartitions(dim, func(v core.Value) bool { return touched[v] }, delta, fresh, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(storeBytes(t, got), storeBytes(t, want)) {
					t.Fatalf("minsup=%d trial %d delta %v: merged store differs from rebuild (%d vs %d cells)",
						minsup, trial, delta != nil, got.NumCells(), want.NumCells())
				}
			}
		}
	}
}

// TestMergePartitionsAux checks measure values survive retention and merge.
func TestMergePartitionsAux(t *testing.T) {
	b := NewBuilder(2, true)
	b.Add([]core.Value{0, 1}, 2, 1.5)
	b.Add([]core.Value{1, 1}, 3, 2.5)
	b.Add([]core.Value{0, core.Star}, 2, 1.5)
	b.Add([]core.Value{core.Star, 1}, 5, 4.0)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshBuilder(2, true,
		core.Cell{Values: []core.Value{1, 1}, Count: 4, Aux: 9.5},
		core.Cell{Values: []core.Value{1, 0}, Count: 1, Aux: 0.5},
		core.Cell{Values: []core.Value{core.Star, 1}, Count: 6, Aux: 11.0},
	)
	m, err := s.MergePartitions(0, func(v core.Value) bool { return v == 1 }, nil, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q     []core.Value
		count int64
		aux   float64
	}{
		{[]core.Value{0, 1}, 2, 1.5},          // retained
		{[]core.Value{1, 1}, 4, 9.5},          // replaced
		{[]core.Value{1, 0}, 1, 0.5},          // new cell in a replaced partition
		{[]core.Value{core.Star, 1}, 6, 11.0}, // wildcard slice rebuilt
	} {
		c, ok := m.Lookup(tc.q)
		if !ok || c.Count != tc.count || c.Aux != tc.aux {
			t.Fatalf("lookup %v = (%v, %v), want count %d aux %g", tc.q, c, ok, tc.count, tc.aux)
		}
	}
	// Retained: (0,1) and (0,*); fresh: the three replacement cells.
	if m.NumCells() != 5 {
		t.Fatalf("merged cells = %d, want 5", m.NumCells())
	}
}

// TestMergePartitionsEmptyReplacement pins the tombstone regime: a replaced
// partition may contribute no fresh cells at all (every tuple of it was
// deleted, or iceberg pruning removed the survivors) — its old cells simply
// vanish, cuboid groups that empty out are dropped, and the merge may even
// produce a store with zero cells.
func TestMergePartitionsEmptyReplacement(t *testing.T) {
	b := NewBuilder(2, false)
	b.Add([]core.Value{0, 1}, 2, 0)
	b.Add([]core.Value{1, 1}, 3, 0)
	b.Add([]core.Value{1, 2}, 1, 0)
	b.Add([]core.Value{core.Star, 1}, 5, 0)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Partition 1 vanishes with no replacements; the wildcard slice shrinks
	// to the surviving partition's projection.
	fresh := freshBuilder(2, false, core.Cell{Values: []core.Value{core.Star, 1}, Count: 2})
	m, err := s.MergePartitions(0, func(v core.Value) bool { return v == 1 }, nil, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCells() != 2 {
		t.Fatalf("merged cells = %d, want 2 (retained (0,1), rebuilt (*,1))", m.NumCells())
	}
	if _, ok := m.Query([]core.Value{1, 1}); ok {
		t.Fatal("vanished partition still answers")
	}
	if c, ok := m.Lookup([]core.Value{core.Star, 1}); !ok || c.Count != 2 {
		t.Fatalf("wildcard slice = (%v, %v), want count 2", c, ok)
	}

	// Degenerate total wipe: every partition replaced, nothing fresh. The
	// merged store is empty but fully functional.
	empty, err := s.MergePartitions(0, func(core.Value) bool { return true }, nil, freshBuilder(2, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumCells() != 0 || empty.NumCuboids() != 0 {
		t.Fatalf("wiped store has %d cells in %d cuboids, want 0", empty.NumCells(), empty.NumCuboids())
	}
	if _, ok := empty.Query([]core.Value{core.Star, core.Star}); ok {
		t.Fatal("empty store answered the apex")
	}
	// An empty store still snapshots and reloads.
	img := storeBytes(t, empty)
	re, err := openCopy(img)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumCells() != 0 {
		t.Fatalf("reloaded empty store has %d cells", re.NumCells())
	}
}

// TestMergePartitionsRejects pins the misuse errors: wrong arity, a measure
// flag the store does not share, a fresh cell fixing the partition dimension
// to an unreplaced value, duplicates, a fresh wildcard cell the delta does
// not touch.
func TestMergePartitionsRejects(t *testing.T) {
	b := NewBuilder(2, false)
	b.Add([]core.Value{0, 1}, 2, 0)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	replaced := func(v core.Value) bool { return v == 1 }
	if _, err := s.MergePartitions(5, replaced, nil, freshBuilder(2, false), nil); err == nil {
		t.Fatal("out-of-range dimension must fail")
	}
	if _, err := s.MergePartitions(0, replaced, nil, freshBuilder(1, false, core.Cell{Values: []core.Value{1}}), nil); err == nil {
		t.Fatal("wrong-arity fresh cell must fail")
	}
	if _, err := s.MergePartitions(0, replaced, nil, freshBuilder(2, true, core.Cell{Values: []core.Value{1, 2}, Count: 1, Aux: 1}), nil); err == nil {
		t.Fatal("fresh cells carrying a measure the store lacks must fail")
	}
	unreplaced := freshBuilder(2, false,
		core.Cell{Values: []core.Value{1, 2}, Count: 1},
		core.Cell{Values: []core.Value{0, 2}, Count: 1},
	)
	if _, err := s.MergePartitions(0, replaced, nil, unreplaced, nil); err == nil {
		t.Fatal("fresh cell in an unreplaced partition must fail")
	}
	dup := freshBuilder(2, false,
		core.Cell{Values: []core.Value{1, 2}, Count: 1},
		core.Cell{Values: []core.Value{1, 2}, Count: 1},
	)
	if _, err := s.MergePartitions(0, replaced, nil, dup, nil); err == nil {
		t.Fatal("duplicate fresh cells must fail")
	}
	untouched := freshBuilder(2, false, core.Cell{Values: []core.Value{core.Star, 1}, Count: 2})
	if _, err := s.MergePartitions(0, replaced, []core.Value{1, 2}, untouched, nil); err == nil {
		t.Fatal("fresh wildcard cell no delta row matches must fail")
	}
}
