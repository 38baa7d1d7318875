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
// into a Builder, which MergeDelta consumes.
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

// matchedBy reports whether some row of delta (nd values each) matches the
// cell vals on its fixed dimensions.
func matchedBy(delta, vals []core.Value) bool {
	nd := len(vals)
	for r := 0; r < len(delta)/nd; r++ {
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

// TestMergeDeltaMatchesRebuild fuzzes the merge constructor: the closed cube
// of an edited relation assembled by merging (the old store's cells no edited
// row matches + the new relation's cells that one does) must be
// byte-identical to the store built from scratch. Each trial runs both ways:
// the rows appended (old = base, new = base + rows) and deleted again (old =
// base + rows, new = base).
func TestMergeDeltaMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, minsup := range []int64{1, 3} {
		for trial := 0; trial < 10; trial++ {
			cards := []int{4 + rng.Intn(5), 5, 4, 3}
			nd := len(cards)
			base := testTable(t, 300+rng.Intn(200), cards, 0.8, int64(trial+10*int(minsup)))

			// The edited rows: anywhere in the relation, a brand-new value of
			// dimension 0 included.
			nDelta := 30 + rng.Intn(40)
			full := table.New(nd, base.NumTuples()+nDelta)
			copy(full.Names, base.Names)
			for d := 0; d < nd; d++ {
				copy(full.Cols[d], base.Cols[d])
			}
			delta := make([]core.Value, 0, nDelta*nd)
			for i := 0; i < nDelta; i++ {
				tid := base.NumTuples() + i
				for d := 0; d < nd; d++ {
					full.Cols[d][tid] = core.Value(rng.Intn(cards[d] + 1))
				}
				delta = append(delta, full.Row(core.TID(tid), nil)...)
			}
			for d := range cards {
				full.Cards[d] = cards[d] + 1
			}

			for _, edit := range []struct {
				name          string
				before, after *table.Table
			}{{"append", base, full}, {"delete", full, base}} {
				newCells := closedCells(t, edit.after, minsup)
				rb := NewBuilder(nd, false)
				fresh := NewBuilder(nd, false)
				for _, c := range newCells {
					rb.Add(c.Values, c.Count, 0)
					if matchedBy(delta, c.Values) {
						fresh.Add(c.Values, c.Count, 0)
					}
				}
				want, err := rb.Build()
				if err != nil {
					t.Fatal(err)
				}
				got, err := buildFromClosed(t, edit.before, minsup).MergeDelta(delta, fresh, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(storeBytes(t, got), storeBytes(t, want)) {
					t.Fatalf("minsup=%d trial %d %s: merged store differs from rebuild (%d vs %d cells)",
						minsup, trial, edit.name, got.NumCells(), want.NumCells())
				}
			}
		}
	}
}

// TestMergeDeltaAux checks measure values survive retention and merge.
func TestMergeDeltaAux(t *testing.T) {
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
	m, err := s.MergeDelta([]core.Value{1, 1, 1, 0}, fresh, nil)
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
		{[]core.Value{1, 0}, 1, 0.5},          // new cell
		{[]core.Value{core.Star, 1}, 6, 11.0}, // replaced wildcard cell
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

// TestMergeDeltaEmptyReplacement pins the tombstone regime: the cells a delta
// matches may have no fresh replacement at all (every tuple of them was
// deleted, or iceberg pruning removed the survivors) — the old cells simply
// vanish, cuboid groups that empty out are dropped, and the merge may even
// produce a store with zero cells.
func TestMergeDeltaEmptyReplacement(t *testing.T) {
	b := NewBuilder(2, false)
	b.Add([]core.Value{0, 1}, 2, 0)
	b.Add([]core.Value{1, 1}, 3, 0)
	b.Add([]core.Value{1, 2}, 1, 0)
	b.Add([]core.Value{core.Star, 1}, 5, 0)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Partition 1's tuples are deleted with no replacements; the wildcard
	// cell shrinks to the surviving partition's tuples.
	partition1 := []core.Value{1, 1, 1, 1, 1, 1, 1, 2}
	fresh := freshBuilder(2, false, core.Cell{Values: []core.Value{core.Star, 1}, Count: 2})
	m, err := s.MergeDelta(partition1, fresh, nil)
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
		t.Fatalf("wildcard cell = (%v, %v), want count 2", c, ok)
	}

	// Degenerate total wipe: every tuple deleted, nothing fresh. The merged
	// store is empty but fully functional.
	empty, err := s.MergeDelta(append([]core.Value{0, 1, 0, 1}, partition1...), freshBuilder(2, false), nil)
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

// TestMergeDeltaRejects pins the misuse errors: wrong arity, a measure flag
// the store does not share, a fresh cell — fixing the leading dimension or
// leaving it wildcard — or a fresh residual row that no delta row matches,
// duplicates.
func TestMergeDeltaRejects(t *testing.T) {
	b := NewBuilder(2, false)
	b.Add([]core.Value{0, 1}, 2, 0)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	delta := []core.Value{1, 2}
	if _, err := s.MergeDelta(delta, freshBuilder(1, false, core.Cell{Values: []core.Value{1}}), nil); err == nil {
		t.Fatal("wrong-arity fresh cell must fail")
	}
	if _, err := s.MergeDelta(delta, freshBuilder(2, true, core.Cell{Values: []core.Value{1, 2}, Count: 1, Aux: 1}), nil); err == nil {
		t.Fatal("fresh cells carrying a measure the store lacks must fail")
	}
	unmatched := freshBuilder(2, false,
		core.Cell{Values: []core.Value{1, 2}, Count: 1},
		core.Cell{Values: []core.Value{0, 2}, Count: 1},
	)
	if _, err := s.MergeDelta(delta, unmatched, nil); err == nil {
		t.Fatal("fresh cell fixing dimension 0 to a value no delta row carries must fail")
	}
	dup := freshBuilder(2, false,
		core.Cell{Values: []core.Value{1, 2}, Count: 1},
		core.Cell{Values: []core.Value{1, 2}, Count: 1},
	)
	if _, err := s.MergeDelta(delta, dup, nil); err == nil {
		t.Fatal("duplicate fresh cells must fail")
	}
	untouched := freshBuilder(2, false, core.Cell{Values: []core.Value{core.Star, 1}, Count: 2})
	if _, err := s.MergeDelta(delta, untouched, nil); err == nil {
		t.Fatal("fresh wildcard cell no delta row matches must fail")
	}
	stray := ComputeResidual(core.Columns{{0}, {2}}, nil, 2, core.MeasureNone)
	if _, err := s.MergeDelta(delta, freshBuilder(2, false), stray); err == nil {
		t.Fatal("fresh residual row no delta row equals must fail")
	}
}
