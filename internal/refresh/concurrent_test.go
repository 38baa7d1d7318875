package refresh

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"ccubing/internal/core"
)

// bag is a tuple multiset: rowKey → multiplicity.
type bag map[string]int

// apply adds sign occurrences of every appended row of a flattened delta and
// takes as many away for every tombstone; sign -1 undoes the delta.
func (b bag) apply(nd int, vals []core.Value, kinds []byte, sign int) {
	for i, k := range kinds {
		if isTombstone(k) {
			b[string(flatKey(nil, nd, vals, nil, i))] -= sign
		} else {
			b[string(flatKey(nil, nd, vals, nil, i))] += sign
		}
	}
}

// rows lists each tuple as often as the bag holds it, in key order.
func (b bag) rows(t *testing.T) [][]core.Value {
	t.Helper()
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var rows [][]core.Value
	for _, k := range keys {
		if b[k] < 0 {
			t.Fatalf("tuple %x deleted %d times more often than it was there", k, -b[k])
		}
		row := make([]core.Value, len(k)/4)
		for d := range row {
			row[d] = core.Value(binary.LittleEndian.Uint32([]byte(k[4*d:])))
		}
		for i := 0; i < b[k]; i++ {
			rows = append(rows, row)
		}
	}
	return rows
}

// TestConcurrentWriters is the dynamic check of the lock discipline staged
// documents: append-only writers (which never take flushMu), writers of
// tombstone and update-pair batches (which do), explicit flushes, the row
// threshold (Apply re-entering Flush) and the interval timer all run at once
// against one manager, then Close. A deadlock is a failure, not a hung job;
// afterwards the published store is byte-identical to a from-scratch build of
// exactly the acknowledged edits minus the backlog, the WAL holds exactly
// that backlog, and one more flush folds it. Run under -race.
func TestConcurrentWriters(t *testing.T) {
	const appenders, editors, rounds = 2, 2, 150
	cards := []int{8, 6, 5, 4}
	base := randomTable(t, 1500, cards, 5)
	nd := base.NumDims()
	wal := &memWAL{}
	m := memManager(t, base, wal)
	if err := m.AutoRefresh(24, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Each writer logs what was acknowledged; an editor deletes only tuples it
	// owns — its share of the base relation and what its own updates put in —
	// so every one of its tombstones names a tuple that is there.
	type opLog struct {
		vals  []core.Value
		kinds []byte
	}
	acked := make([]opLog, appenders+editors)
	apply := func(id int, b Batch) bool {
		n, _, err := m.Apply(b)
		if err != nil || n != b.Row(b.Len()) {
			t.Errorf("writer %d: batch %v: applied %d rows, %v", id, b.Kinds, n, err)
			return false
		}
		for i, row := range b.Values {
			acked[id].vals = append(acked[id].vals, row...)
			acked[id].kinds = append(acked[id].kinds, b.Kind(i))
		}
		return true
	}
	randomRow := func(rng *rand.Rand) []core.Value {
		row := make([]core.Value, nd)
		for d := range row {
			row[d] = core.Value(rng.Intn(cards[d]))
		}
		return row
	}
	var wg sync.WaitGroup
	for id := 0; id < appenders+editors; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			var mine [][]core.Value
			if id >= appenders {
				for tid, row := range tableRows(base) {
					if tid%editors == id-appenders {
						mine = append(mine, row)
					}
				}
			}
			for round := 0; round < rounds; round++ {
				var b Batch
				if id < appenders {
					b.Values = randomDelta(rng, cards, 1+rng.Intn(6))
				}
				for op := 1 + rng.Intn(3); id >= appenders && op > 0 && len(mine) > 0; op-- {
					// Mostly a recent tuple: one whose append may sit in the
					// delta a concurrent refresh is folding.
					i := len(mine) - 1 - rng.Intn(min(4, len(mine)))
					if rng.Intn(4) == 0 {
						i = rng.Intn(len(mine))
					}
					old := mine[i]
					mine = slices.Delete(mine, i, i+1)
					if rng.Intn(2) == 0 {
						b.Values, b.Kinds = append(b.Values, old), append(b.Kinds, OpDelete)
						continue
					}
					row := randomRow(rng)
					b.Values, b.Kinds = append(b.Values, old, row), append(b.Kinds, OpUpdateOld, OpUpdateNew)
					mine = append(mine, row)
				}
				if b.Len() > 0 && !apply(id, b) {
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < rounds; round++ {
			if _, err := m.Flush(); err != nil {
				t.Errorf("explicit flush: %v", err)
			}
			runtime.Gosched()
		}
	}()
	done := make(chan error)
	go func() {
		wg.Wait()
		done <- m.Close()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		stacks := make([]byte, 1<<20)
		t.Fatalf("writers, refreshes and Close did not finish: deadlock\n%s", stacks[:runtime.Stack(stacks, true)])
	}
	if t.Failed() {
		return
	}

	// Quiescent from here on: the timer is stopped. The WAL holds the backlog.
	replayed := newDeltaLog(nd, false)
	if _, err := replayed.attach(&memWAL{b: wal.b}, nil); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(replayed.vals, m.delta.log.vals) || !bytes.Equal(replayed.kinds, m.delta.log.kinds) {
		t.Fatalf("the WAL replays to %d ops, the buffer holds %d", replayed.rows(), m.Backlog())
	}
	// One acknowledged batch that nothing folds, so the backlog is not empty.
	if err := m.AutoRefresh(0, 0); err != nil {
		t.Fatal(err)
	}
	trailing := Batch{Values: randomDelta(rand.New(rand.NewSource(99)), cards, 5)}
	if !apply(0, trailing) {
		t.FailNow()
	}

	relation := bag{} // the base relation and every acknowledged op
	relation.apply(nd, flatten(tableRows(base)), make([]byte, base.NumTuples()), 1)
	ops := 0
	for _, l := range acked {
		relation.apply(nd, l.vals, l.kinds, 1)
		ops += len(l.kinds)
	}
	published := maps.Clone(relation) // the same without the backlog
	published.apply(nd, m.delta.log.vals, m.delta.log.kinds, -1)
	if m.Backlog() < trailing.Len() || m.Backlog() > ops {
		t.Fatalf("backlog %d after %d acknowledged ops, the last %d of them unfolded", m.Backlog(), ops, trailing.Len())
	}
	check := func(what string, want bag) {
		t.Helper()
		rows := want.rows(t)
		got := m.Snapshot()
		if got.Rows != int64(len(rows)) {
			t.Fatalf("%s: snapshot has %d rows, want %d", what, got.Rows, len(rows))
		}
		if !bytes.Equal(snapshotBytes(t, got.Store), snapshotBytes(t, buildStoreFor(t, tableFromRows(t, rows, cards), 1, core.MeasureNone, false))) {
			t.Fatalf("%s: published store differs from a from-scratch build of the acknowledged edits", what)
		}
	}
	check("acknowledged minus backlog", published)
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.Backlog() != 0 {
		t.Fatalf("backlog %d after the final flush", m.Backlog())
	}
	check("every acknowledged edit", relation)
}
