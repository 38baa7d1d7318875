package refresh

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/table"
)

// tableRows extracts a table's tuples as row slices (the test-side multiset
// model the fuzz keeps in sync with the manager).
func tableRows(t *table.Table) [][]core.Value {
	rows := make([][]core.Value, t.NumTuples())
	for tid := range rows {
		rows[tid] = t.Row(core.TID(tid), nil)
	}
	return rows
}

func tableFromRows(t *testing.T, rows [][]core.Value, minCards []int) *table.Table {
	t.Helper()
	tbl, err := table.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for d, c := range minCards {
		if tbl.Cards[d] < c {
			tbl.Cards[d] = c
		}
	}
	return tbl
}

// TestFlushDeleteUpdateMatchesRebuild is the tentpole acceptance criterion
// at the manager layer: after a random interleaving of appends, deletes and
// updates, the refreshed store is byte-identical to a from-scratch
// computation over the edited relation — at minsup 1 and on iceberg cubes.
func TestFlushDeleteUpdateMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cards := []int{6, 5, 4}
	for _, minsup := range []int64{1, 3} {
		for trial := 0; trial < 12; trial++ {
			base := randomTable(t, 250+rng.Intn(200), cards, int64(trial)+31*minsup)
			m := testManager(t, base, minsup)
			live := tableRows(base) // the expected multiset, kept in sync

			randomRow := func() []core.Value {
				row := make([]core.Value, len(cards))
				for d := range cards {
					row[d] = core.Value(rng.Intn(cards[d]))
				}
				return row
			}
			nOps := 3 + rng.Intn(4)
			for op := 0; op < nOps; op++ {
				switch rng.Intn(3) {
				case 0: // append batch
					delta := randomDelta(rng, cards, 5+rng.Intn(15))
					if _, _, err := m.Append(delta, nil); err != nil {
						t.Fatal(err)
					}
					live = append(live, delta...)
				case 1: // delete batch: existing tuples, multiset semantics
					if len(live) == 0 {
						continue
					}
					k := 1 + rng.Intn(min(8, len(live)))
					dels := make([][]core.Value, 0, k)
					for j := 0; j < k && len(live) > 0; j++ {
						i := rng.Intn(len(live))
						dels = append(dels, live[i])
						live = append(live[:i], live[i+1:]...)
					}
					if _, _, err := m.Delete(dels, nil); err != nil {
						t.Fatal(err)
					}
				case 2: // update batch
					if len(live) == 0 {
						continue
					}
					k := 1 + rng.Intn(min(5, len(live)))
					olds := make([][]core.Value, 0, k)
					news := make([][]core.Value, 0, k)
					for j := 0; j < k && len(live) > 0; j++ {
						i := rng.Intn(len(live))
						olds = append(olds, live[i])
						live = append(live[:i], live[i+1:]...)
						nr := randomRow()
						news = append(news, nr)
						live = append(live, nr)
					}
					if _, _, err := m.Update(olds, news, nil, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			// One batch interleaving all three: each op draws on the relation
			// as the ops before it left it, in-batch appends included.
			var mixed Batch
			for op := 0; op < 4+rng.Intn(8); op++ {
				kind := byte(rng.Intn(3)) // OpAppend, OpDelete, or an update pair
				if kind != OpAppend {
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					mixed.Values = append(mixed.Values, live[i])
					mixed.Kinds = append(mixed.Kinds, kind)
					live = append(live[:i], live[i+1:]...)
				}
				if kind != OpDelete {
					nr := randomRow()
					mixed.Values = append(mixed.Values, nr)
					mixed.Kinds = append(mixed.Kinds, kind+kind/2) // OpAppend, or OpUpdateNew after its OpUpdateOld
					live = append(live, nr)
				}
			}
			if n, _, err := m.Apply(mixed); err != nil || n != mixed.Row(mixed.Len()) {
				t.Fatalf("mixed batch %v: applied %d rows, %v", mixed.Kinds, n, err)
			}
			st, err := m.Flush()
			if err != nil {
				t.Fatal(err)
			}
			if st.Appended+st.Deleted == 0 {
				continue
			}
			want := buildStoreFor(t, tableFromRows(t, live, cards), minsup, core.MeasureNone, false)
			got := m.Snapshot().Store
			if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
				t.Fatalf("minsup=%d trial=%d: edited store differs from rebuild (%d vs %d cells)",
					minsup, trial, got.NumCells(), want.NumCells())
			}
			if m.Snapshot().Rows != int64(len(live)) {
				t.Fatalf("snapshot rows = %d, want %d", m.Snapshot().Rows, len(live))
			}
		}
	}
}

// TestFlushPartitionShrinksToEmpty deletes every tuple of one partition: its
// closed cells must vanish from the merged store, matching a rebuild of the
// smaller relation.
func TestFlushPartitionShrinksToEmpty(t *testing.T) {
	cards := []int{5, 4, 3}
	base := randomTable(t, 300, cards, 51)
	m := testManager(t, base, 1)

	victim := base.Cols[0][0]
	var dels [][]core.Value
	var live [][]core.Value
	for _, row := range tableRows(base) {
		if row[0] == victim {
			dels = append(dels, row)
		} else {
			live = append(live, row)
		}
	}
	if len(dels) == 0 || len(live) == 0 {
		t.Fatal("bad fixture: partition empty or total")
	}
	if _, _, err := m.Delete(dels, nil); err != nil {
		t.Fatal(err)
	}
	st, err := m.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != len(dels) || st.Appended != 0 {
		t.Fatalf("stats = %+v, want %d deleted", st, len(dels))
	}
	got := m.Snapshot().Store
	want := buildStoreFor(t, tableFromRows(t, live, cards), 1, core.MeasureNone, false)
	if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
		t.Fatal("partition-shrinks-to-empty store differs from rebuild")
	}
	// No cell fixes the vanished partition value anymore.
	probe := []core.Value{victim, core.Star, core.Star}
	if _, ok := got.Query(probe); ok {
		t.Fatalf("partition %d still answers after all its tuples were deleted", victim)
	}
}

// TestFlushDeleteEverything empties the relation entirely: the published
// store has zero cells, and the cube comes back when tuples are appended
// again.
func TestFlushDeleteEverything(t *testing.T) {
	cards := []int{4, 3, 3}
	base := randomTable(t, 120, cards, 53)
	m := testManager(t, base, 1)
	if _, _, err := m.Delete(tableRows(base), nil); err != nil {
		t.Fatal(err)
	}
	st, err := m.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != base.NumTuples() {
		t.Fatalf("deleted %d, want %d", st.Deleted, base.NumTuples())
	}
	if got := m.Snapshot().Store.NumCells(); got != 0 {
		t.Fatalf("emptied relation serves %d cells, want 0", got)
	}
	if m.Snapshot().Rows != 0 {
		t.Fatalf("rows = %d, want 0", m.Snapshot().Rows)
	}

	// The cube is not dead: appends to the empty relation refresh normally.
	delta := [][]core.Value{{1, 2, 1}, {1, 2, 1}, {3, 0, 2}}
	if _, _, err := m.Append(delta, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	want := buildStoreFor(t, tableFromRows(t, delta, cards), 1, core.MeasureNone, false)
	if !bytes.Equal(snapshotBytes(t, m.Snapshot().Store), snapshotBytes(t, want)) {
		t.Fatal("refresh from an emptied relation differs from rebuild")
	}
}

// TestDeleteValidation pins the tombstone error contract: deletes must name
// tuples present in base + pending delta, and a rejected batch buffers
// nothing.
func TestDeleteValidation(t *testing.T) {
	rows := [][]core.Value{{0, 0}, {0, 0}, {1, 2}}
	base := tableFromRows(t, rows, nil)
	m := testManager(t, base, 1)

	if _, _, err := m.Delete([][]core.Value{{3, 3}}, nil); err == nil || !strings.Contains(err.Error(), "not present") {
		t.Fatalf("deleting an absent tuple: err = %v", err)
	}
	// Multiplicity: two copies of (0,0) exist; a third tombstone overdraws.
	if _, _, err := m.Delete([][]core.Value{{0, 0}, {0, 0}, {0, 0}}, nil); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("overdrawn multiplicity: err = %v", err)
	}
	if m.Backlog() != 0 {
		t.Fatalf("rejected batches left %d rows buffered", m.Backlog())
	}
	// A pending append satisfies a later tombstone...
	if _, _, err := m.Append([][]core.Value{{2, 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Delete([][]core.Value{{2, 1}}, nil); err != nil {
		t.Fatalf("deleting a pending append: %v", err)
	}
	// ...and a pending tombstone blocks a second delete of the same tuple.
	if _, _, err := m.Delete([][]core.Value{{1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Delete([][]core.Value{{1, 2}}, nil); err == nil {
		t.Fatal("second tombstone for a single occurrence must fail")
	}
	// The append+delete pair nets out; flushing the remainder matches a
	// rebuild of rows minus (1,2).
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	want := buildStoreFor(t, tableFromRows(t, [][]core.Value{{0, 0}, {0, 0}}, base.Cards), 1, core.MeasureNone, false)
	if !bytes.Equal(snapshotBytes(t, m.Snapshot().Store), snapshotBytes(t, want)) {
		t.Fatal("cancelled append+delete store differs from rebuild")
	}

	// Update structural validation.
	if _, _, err := m.Update([][]core.Value{{0, 0}}, nil, nil, nil); err == nil {
		t.Fatal("mismatched update arities must fail")
	}
	if _, _, err := m.Update([][]core.Value{{7, 7}}, [][]core.Value{{1, 1}}, nil, nil); err == nil {
		t.Fatal("updating an absent tuple must fail")
	}
	// An update chain inside one batch: (0,0) -> (3,3), then (3,3) -> (1,1).
	if _, _, err := m.Update([][]core.Value{{0, 0}, {3, 3}}, [][]core.Value{{3, 3}, {1, 1}}, nil, nil); err != nil {
		t.Fatalf("sequential update chain: %v", err)
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	want = buildStoreFor(t, tableFromRows(t, [][]core.Value{{0, 0}, {1, 1}}, base.Cards), 1, core.MeasureNone, false)
	if !bytes.Equal(snapshotBytes(t, m.Snapshot().Store), snapshotBytes(t, want)) {
		t.Fatal("update-chain store differs from rebuild")
	}
}

// TestDeleteLabeledValidation pins the labeled tombstone contract: unknown
// labels are "no such tuple" errors and never grow the staging dictionaries;
// a rejected UpdateLabeled batch leaves no phantom labels either.
func TestDeleteLabeledValidation(t *testing.T) {
	tbl, err := gen.Synthetic(gen.Config{T: 60, Cards: []int{3, 3}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dicts := []*table.Dict{
		table.DictFromNames([]string{"a0", "a1", "a2"}),
		table.DictFromNames([]string{"b0", "b1", "b2"}),
	}
	m, err := NewManager(tbl, buildStoreFor(t, tbl, 1, core.MeasureNone, false), dicts, engine.Config{MinSup: 1, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.DeleteLabeled([][]string{{"ghost", "b0"}}, nil); err == nil || !strings.Contains(err.Error(), "no such tuple") {
		t.Fatalf("unknown label delete: err = %v", err)
	}
	// A failing UpdateLabeled batch must not stage its new labels: overdraw
	// (a0,b0) far beyond any possible multiplicity so the batch is rejected.
	before := m.delta.dicts[0].Len()
	many := make([][]string, 100)
	news := make([][]string, 100)
	for i := range many {
		many[i] = []string{"a0", "b0"}
		news[i] = []string{"brand-new", "b0"}
	}
	if _, _, err := m.UpdateLabeled(many, news, nil, nil); err == nil {
		t.Fatal("overdrawn labeled update must fail")
	}
	after := m.delta.dicts[0].Len()
	if after != before {
		t.Fatalf("rejected UpdateLabeled grew dictionary from %d to %d labels", before, after)
	}
	if m.Backlog() != 0 {
		t.Fatalf("rejected batches left %d rows buffered", m.Backlog())
	}
}

// TestUpdateLabeledWALFailureNoPhantomLabels pins the commit ordering of the
// one coding path, by label through either verb that can introduce one: when
// the WAL write fails, the batch is rejected AND its new labels must not have
// reached the staging dictionaries.
func TestUpdateLabeledWALFailureNoPhantomLabels(t *testing.T) {
	tbl, err := gen.Synthetic(gen.Config{T: 40, Cards: []int{3, 3}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A tuple that exists, so availability passes and the failure comes from
	// the WAL write alone.
	old := []string{"a" + string('0'+byte(tbl.Cols[0][0])), "b" + string('0'+byte(tbl.Cols[1][0]))}
	for _, c := range []struct {
		name   string
		mutate func(m *Manager) error
	}{
		{"append by label", func(m *Manager) error {
			_, _, err := m.AppendLabeled([][]string{{"phantom", "b0"}}, nil)
			return err
		}},
		{"update by label", func(m *Manager) error {
			_, _, err := m.UpdateLabeled([][]string{old}, [][]string{{"phantom", "b0"}}, nil, nil)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dicts := []*table.Dict{
				table.DictFromNames([]string{"a0", "a1", "a2"}),
				table.DictFromNames([]string{"b0", "b1", "b2"}),
			}
			m, err := NewManager(tbl, buildStoreFor(t, tbl, 1, core.MeasureNone, false), dicts, engine.Config{MinSup: 1, Closed: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.EnableWAL(filepath.Join(t.TempDir(), "fail.wal")); err != nil {
				t.Fatal(err)
			}
			m.delta.log.w.(*fileWAL).f.Close() // sabotage the descriptor; close() would nil it out
			if err := c.mutate(m); err == nil {
				t.Fatal("a mutation over a broken WAL must fail")
			}
			m.delta.log.w = nil
			if got := m.delta.dicts[0].Len(); got != 3 {
				t.Fatalf("failed WAL write staged phantom labels: dictionary has %d entries, want 3", got)
			}
			if m.delta.log.rows() != 0 {
				t.Fatalf("failed WAL write left %d rows buffered", m.delta.log.rows())
			}
		})
	}
}

// TestWALReplayWithTombstones checks pending deletes and updates survive a
// restart: a manager with a WAL is closed before flushing; a fresh manager
// over the same base replays them and its refresh matches a rebuild.
func TestWALReplayWithTombstones(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "delta.wal")
	cards := []int{5, 4, 3}
	base := randomTable(t, 200, cards, 61)
	live := tableRows(base)

	m1 := walManager(t, base, 1, wal)
	appends := [][]core.Value{{1, 1, 1}, {2, 3, 2}}
	if _, _, err := m1.Append(appends, nil); err != nil {
		t.Fatal(err)
	}
	live = append(live, appends...)
	dels := [][]core.Value{live[0], live[3]}
	if _, _, err := m1.Delete(dels, nil); err != nil {
		t.Fatal(err)
	}
	live = append(live[1:3], live[4:]...)
	oldRow, newRow := live[5], []core.Value{0, 0, 2}
	if _, _, err := m1.Update([][]core.Value{oldRow}, [][]core.Value{newRow}, nil, nil); err != nil {
		t.Fatal(err)
	}
	live = append(append(live[:5], live[6:]...), newRow)
	wantBacklog := m1.Backlog()
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := walManager(t, base, 1, wal)
	defer m2.Close()
	if got := m2.Backlog(); got != wantBacklog {
		t.Fatalf("replayed backlog = %d, want %d", got, wantBacklog)
	}
	st, err := m2.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != 3 || st.Appended != 3 {
		t.Fatalf("stats = %+v, want 3 appended, 3 deleted", st)
	}
	want := buildStoreFor(t, tableFromRows(t, live, cards), 1, core.MeasureNone, false)
	if !bytes.Equal(snapshotBytes(t, m2.Snapshot().Store), snapshotBytes(t, want)) {
		t.Fatal("replayed tombstone refresh differs from rebuild")
	}
}

// TestMergeToleratesEmptyPartitionReplacement drives MergeDelta through the
// manager with a partition that empties: the delta's cells fixing it have no
// fresh replacement at all (every tuple deleted, iceberg pruning the rest).
func TestMergeToleratesEmptyPartitionReplacement(t *testing.T) {
	// Partition 0 holds a single tuple; minsup 2 means even before the
	// delete, no cell fixes partition 0. Deleting the tuple leaves the
	// partition both empty and iceberg-pruned.
	rows := [][]core.Value{
		{0, 1, 1},
		{1, 1, 1}, {1, 1, 1},
		{2, 0, 1}, {2, 0, 1}, {2, 2, 2},
	}
	base := tableFromRows(t, rows, nil)
	m := testManager(t, base, 2)
	if _, _, err := m.Delete([][]core.Value{{0, 1, 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	want := buildStoreFor(t, tableFromRows(t, rows[1:], base.Cards), 2, core.MeasureNone, false)
	if !bytes.Equal(snapshotBytes(t, m.Snapshot().Store), snapshotBytes(t, want)) {
		t.Fatal("empty-replacement merge differs from rebuild")
	}
}
