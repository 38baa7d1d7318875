package refresh

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ccubing/internal/core"
	"ccubing/internal/cubestore"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/qcdfs"
	"ccubing/internal/table"
)

// buildStoreFor computes the closed iceberg cube of tbl, storing the measure
// kind folds over tbl.Aux (none: no measure), and freezes it — with the
// residual of the iceberg pruning attached when residual is set.
func buildStoreFor(t testing.TB, tbl *table.Table, minsup int64, kind core.MeasureKind, residual bool) *cubestore.Store {
	t.Helper()
	b := cubestore.NewBuilder(tbl.NumDims(), kind != core.MeasureNone)
	if err := qcdfs.Engine.Run(tbl, engine.Config{MinSup: minsup, Closed: true, Measure: kind}, &cubestore.BuilderSink{B: b}); err != nil {
		t.Fatal(err)
	}
	if residual {
		if err := b.SetResidual(cubestore.ComputeResidual(tbl.Cols, tbl.Aux, minsup, kind)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testManager(t testing.TB, tbl *table.Table, minsup int64) *Manager {
	t.Helper()
	m, err := NewManager(tbl, buildStoreFor(t, tbl, minsup, core.MeasureNone, false), nil, engine.Config{MinSup: minsup, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// walManager is testManager with the write-ahead log at path attached.
func walManager(t testing.TB, tbl *table.Table, minsup int64, path string) *Manager {
	t.Helper()
	m := testManager(t, tbl, minsup)
	if err := m.EnableWAL(path); err != nil {
		t.Fatal(err)
	}
	return m
}

// appendRows builds the grown relation from an append-only delta; see
// applyDelta for the general (tombstone-bearing) form.
func appendRows(t *table.Table, rows []core.Value, aux []float64, dicts []*table.Dict) *table.Table {
	nt, _, _, err := applyDelta(t, rows, aux, nil, dicts)
	if err != nil {
		panic(err) // unreachable: an append-only delta cannot leave unmatched tombstones
	}
	return nt
}

func randomTable(t testing.TB, n int, cards []int, seed int64) *table.Table {
	t.Helper()
	tbl, err := gen.Synthetic(gen.Config{T: n, Cards: cards, S: 0.9, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// randomDelta draws delta rows whose leading-dimension values come from a
// small touched set (occasionally a brand-new partition value).
func randomDelta(rng *rand.Rand, cards []int, n int) [][]core.Value {
	touched := []core.Value{core.Value(rng.Intn(cards[0]))}
	if rng.Intn(2) == 0 {
		touched = append(touched, core.Value(cards[0])) // new partition
	}
	rows := make([][]core.Value, n)
	for i := range rows {
		row := make([]core.Value, len(cards))
		row[0] = touched[rng.Intn(len(touched))]
		for d := 1; d < len(cards); d++ {
			row[d] = core.Value(rng.Intn(cards[d]))
		}
		rows[i] = row
	}
	return rows
}

func snapshotBytes(t testing.TB, s *cubestore.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlushMatchesRebuild is the package-level acceptance criterion: over
// randomized relations and deltas, at minsup 1 and on iceberg cubes, the
// refreshed store is byte-identical to one materialized from scratch over
// the grown relation.
func TestFlushMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, minsup := range []int64{1, 3} {
		for trial := 0; trial < 12; trial++ {
			cards := []int{5 + rng.Intn(4), 5, 4, 3}
			base := randomTable(t, 250+rng.Intn(250), cards, int64(trial)+17*minsup)
			m := testManager(t, base, minsup)
			delta := randomDelta(rng, cards, 20+rng.Intn(40))
			if _, _, err := m.Append(delta, nil); err != nil {
				t.Fatal(err)
			}
			st, err := m.Flush()
			if err != nil {
				t.Fatal(err)
			}
			if st.Generation != 1 || st.Appended != len(delta) {
				t.Fatalf("stats = %+v, want generation 1 appending %d", st, len(delta))
			}
			distinct := map[core.Value]bool{}
			for _, row := range delta {
				distinct[row[0]] = true
			}
			if st.PartitionsRecomputed != len(distinct) || st.PartitionsRecomputed >= st.PartitionsTotal {
				t.Fatalf("recomputed %d of %d partitions: the delta names %d",
					st.PartitionsRecomputed, st.PartitionsTotal, len(distinct))
			}

			full := appendRows(base, flatten(delta), nil, nil)
			want := buildStoreFor(t, full, minsup, core.MeasureNone, false)
			got := m.Snapshot().Store
			if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
				t.Fatalf("minsup=%d trial=%d: refreshed store differs from rebuild (%d vs %d cells)",
					minsup, trial, got.NumCells(), want.NumCells())
			}
			if m.Snapshot().Rows != int64(full.NumTuples()) {
				t.Fatalf("snapshot rows = %d, want %d", m.Snapshot().Rows, full.NumTuples())
			}
		}
	}
}

func flatten(rows [][]core.Value) []core.Value {
	var out []core.Value
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// TestFlushEmptyDelta pins the no-op contract: same snapshot, same
// generation.
func TestFlushEmptyDelta(t *testing.T) {
	base := randomTable(t, 200, []int{5, 4, 3}, 3)
	m := testManager(t, base, 1)
	before := m.Snapshot()
	st, err := m.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation != 0 || st.Appended != 0 {
		t.Fatalf("no-op stats = %+v", st)
	}
	if m.Snapshot() != before {
		t.Fatal("no-op flush must not publish a new snapshot")
	}
}

// TestRowThresholdTrigger checks the synchronous row-count trigger: the
// append crossing the threshold refreshes before returning.
func TestRowThresholdTrigger(t *testing.T) {
	base := randomTable(t, 200, []int{5, 4, 3}, 5)
	m := testManager(t, base, 1)
	if err := m.AutoRefresh(10, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if _, flushed, err := m.Append(randomDelta(rng, []int{5, 4, 3}, 6), nil); err != nil || flushed {
		t.Fatalf("below threshold: flushed=%v err=%v", flushed, err)
	}
	if m.Snapshot().Generation != 0 {
		t.Fatal("refresh fired below the threshold")
	}
	if _, flushed, err := m.Append(randomDelta(rng, []int{5, 4, 3}, 6), nil); err != nil || !flushed {
		t.Fatalf("at threshold: flushed=%v err=%v", flushed, err)
	}
	if g := m.Snapshot().Generation; g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}
	if m.Backlog() != 0 {
		t.Fatalf("backlog = %d after refresh", m.Backlog())
	}
}

// TestTimerTrigger checks the background interval trigger.
func TestTimerTrigger(t *testing.T) {
	base := randomTable(t, 150, []int{4, 4, 3}, 11)
	m := testManager(t, base, 1)
	rng := rand.New(rand.NewSource(13))
	if _, _, err := m.Append(randomDelta(rng, []int{4, 4, 3}, 8), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AutoRefresh(0, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	deadline := time.Now().Add(5 * time.Second)
	for m.Snapshot().Generation == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timer refresh never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m.Backlog() != 0 {
		t.Fatalf("backlog = %d after timer refresh", m.Backlog())
	}
}

// TestWALReplay checks pending appends survive a restart: a manager with a
// WAL is closed before flushing; a fresh manager over the same base replays
// the delta and its refresh matches a from-scratch rebuild.
func TestWALReplay(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "delta.wal")
	cards := []int{5, 4, 3}
	base := randomTable(t, 200, cards, 21)
	rng := rand.New(rand.NewSource(23))
	delta := randomDelta(rng, cards, 25)

	m1 := walManager(t, base, 1, wal)
	if _, _, err := m1.Append(delta, nil); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := walManager(t, base, 1, wal)
	defer m2.Close()
	if got := m2.Backlog(); got != len(delta) {
		t.Fatalf("replayed backlog = %d, want %d", got, len(delta))
	}
	if _, err := m2.Flush(); err != nil {
		t.Fatal(err)
	}
	full := appendRows(base, flatten(delta), nil, nil)
	want := buildStoreFor(t, full, 1, core.MeasureNone, false)
	if !bytes.Equal(snapshotBytes(t, m2.Snapshot().Store), snapshotBytes(t, want)) {
		t.Fatal("replayed refresh differs from rebuild")
	}
	// The WAL is drained once the delta is folded in.
	m3 := walManager(t, full, 1, wal)
	defer m3.Close()
	if got := m3.Backlog(); got != 0 {
		t.Fatalf("backlog after drain = %d, want 0", got)
	}
}

// TestAppendValidation pins the append error contract.
func TestAppendValidation(t *testing.T) {
	base := randomTable(t, 100, []int{4, 3}, 31)
	m := testManager(t, base, 1)
	if _, _, err := m.Append([][]core.Value{{1}}, nil); err == nil {
		t.Fatal("wrong arity must fail")
	}
	if _, _, err := m.Append([][]core.Value{{-1, 0}}, nil); err == nil {
		t.Fatal("negative value must fail")
	}
	if _, _, err := m.Append([][]core.Value{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("aux without a measure column must fail")
	}
	if _, _, err := m.AppendLabeled([][]string{{"a", "b"}}, nil); err == nil {
		t.Fatal("labeled append on a coded relation must fail")
	}
	if m.Backlog() != 0 {
		t.Fatalf("failed appends left %d rows buffered", m.Backlog())
	}

	// A value beyond the cardinality growth bound is rejected — a hostile
	// near-MaxInt32 value must not force cardinality-sized allocations.
	if _, _, err := m.Append([][]core.Value{{4 + cardSlack, 0}}, nil); err == nil {
		t.Fatal("value beyond card+slack must fail")
	}
	if _, _, err := m.Append([][]core.Value{{4 + cardSlack - 1, 0}}, nil); err != nil {
		t.Fatalf("value within the slack must append: %v", err)
	}
}

// TestAppendsFlowDuringRefresh pins the lock Apply takes: an all-append batch
// needs the staged delta's leaf lock alone, so it completes while flushMu is
// held — the state of a manager whose refresh is computing. A batch holding a
// tombstone reads the base relation and must wait.
func TestAppendsFlowDuringRefresh(t *testing.T) {
	base := randomTable(t, 100, []int{4, 3}, 33)
	m := testManager(t, base, 1)
	tuple := base.Row(0, nil)
	apply := func(b Batch) chan error {
		done := make(chan error, 1)
		go func() {
			_, _, err := m.Apply(b)
			done <- err
		}()
		return done
	}
	m.flushMu.Lock()
	select {
	case err := <-apply(Batch{Values: [][]core.Value{{1, 2}}}):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an append-only batch waits for flushMu: appends stall while a refresh computes")
	}
	tombstone := apply(Batch{Values: [][]core.Value{tuple}, Kinds: []byte{OpDelete}})
	select {
	case err := <-tombstone:
		t.Fatalf("a tombstone batch did not wait for flushMu (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	m.flushMu.Unlock()
	if err := <-tombstone; err != nil {
		t.Fatal(err)
	}
	if m.Backlog() != 2 {
		t.Fatalf("backlog = %d, want 2", m.Backlog())
	}
}

// TestBatchShape pins what Apply rejects before looking at the relation, and
// the in-order reading of a batch: a label or tuple an earlier op brings in is
// there for a later tombstone.
func TestBatchShape(t *testing.T) {
	tbl, err := gen.Synthetic(gen.Config{T: 50, Cards: []int{3, 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dicts := []*table.Dict{table.DictFromNames([]string{"a0", "a1", "a2"}), table.DictFromNames([]string{"b0", "b1", "b2"})}
	m, err := NewManager(tbl, buildStoreFor(t, tbl, 1, core.MeasureNone, false), dicts, engine.Config{MinSup: 1, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	row := []string{"a0", "b0"}
	for name, b := range map[string]Batch{
		"both forms":        {Rows: [][]string{row}, Values: [][]core.Value{{0, 0}}},
		"short kinds":       {Rows: [][]string{row, row}, Kinds: []byte{OpAppend}},
		"unknown kind":      {Rows: [][]string{row}, Kinds: []byte{9}},
		"old without new":   {Rows: [][]string{row}, Kinds: []byte{OpUpdateOld}},
		"new without old":   {Rows: [][]string{row, row}, Kinds: []byte{OpAppend, OpUpdateNew}},
		"old then append":   {Rows: [][]string{row, row}, Kinds: []byte{OpUpdateOld, OpAppend}},
		"aux on no measure": {Rows: [][]string{row}, Aux: []float64{1}},
	} {
		if n, _, err := m.Apply(b); err == nil || n != 0 {
			t.Errorf("%s: applied %d rows, err %v", name, n, err)
		}
	}
	if m.Backlog() != 0 {
		t.Fatalf("rejected batches left %d rows buffered", m.Backlog())
	}
	// Row numbers count an update pair once: the bad tuple is row 1.
	_, _, err = m.Apply(Batch{
		Rows:  [][]string{row, {"a1", "b1"}, {"ghost", "b0"}, row},
		Kinds: []byte{OpUpdateOld, OpUpdateNew, OpUpdateOld, OpUpdateNew},
	})
	if err == nil || !strings.Contains(err.Error(), "row 1 dimension 0") {
		t.Fatalf("unknown old label in the second pair: %v", err)
	}
	n, _, err := m.Apply(Batch{
		Rows:  [][]string{{"fresh", "b0"}, {"fresh", "b0"}, row, {"fresh", "b1"}},
		Kinds: []byte{OpAppend, OpDelete, OpUpdateOld, OpUpdateNew},
	})
	if err != nil || n != 3 {
		t.Fatalf("append, delete what it appended, update: %d rows, %v", n, err)
	}
	if got := m.delta.dicts[0].Len(); got != 4 {
		t.Fatalf("dimension 0 has %d labels after one new one, want 4", got)
	}
}

// TestAppendLabeledValidatesBeforeCoding pins the phantom-label guard: a
// batch rejected for arity must not grow the staging dictionaries.
func TestAppendLabeledValidatesBeforeCoding(t *testing.T) {
	tbl, err := gen.Synthetic(gen.Config{T: 50, Cards: []int{3, 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dicts := []*table.Dict{table.DictFromNames([]string{"a0", "a1", "a2"}), table.DictFromNames([]string{"b0", "b1", "b2"})}
	m, err := NewManager(tbl, buildStoreFor(t, tbl, 1, core.MeasureNone, false), dicts, engine.Config{MinSup: 1, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AppendLabeled([][]string{{"new-a", "b0"}, {"short"}}, nil); err == nil {
		t.Fatal("ragged batch must fail")
	}
	if got := m.delta.dicts[0].Len(); got != 3 {
		t.Fatalf("rejected batch grew dimension 0's dictionary to %d labels", got)
	}
}

// TestSequentialRefreshes folds several deltas one refresh at a time and
// compares the final store to a single from-scratch rebuild.
func TestSequentialRefreshes(t *testing.T) {
	cards := []int{6, 5, 4}
	base := randomTable(t, 300, cards, 37)
	m := testManager(t, base, 2)
	rng := rand.New(rand.NewSource(39))
	full := base
	for k := 0; k < 4; k++ {
		delta := randomDelta(rng, cards, 15)
		if _, _, err := m.Append(delta, nil); err != nil {
			t.Fatal(err)
		}
		st, err := m.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if st.Generation != uint64(k+1) {
			t.Fatalf("generation = %d after %d refreshes", st.Generation, k+1)
		}
		full = appendRows(full, flatten(delta), nil, nil)
	}
	want := buildStoreFor(t, full, 2, core.MeasureNone, false)
	if !bytes.Equal(snapshotBytes(t, m.Snapshot().Store), snapshotBytes(t, want)) {
		t.Fatal("chained refreshes diverge from rebuild")
	}
	met := m.Metrics()
	if met.Refreshes != 4 || met.Generation != 4 || met.Backlog != 0 {
		t.Fatalf("metrics = %+v", met)
	}
}
