package refresh

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/table"
)

// memWAL is an in-memory WAL: the test double proving the delta log's replay
// / append / rewrite cycle never depends on *os.File semantics.
type memWAL struct {
	b      []byte
	syncs  int
	closed bool
	fail   error // when set, every mutation returns it
}

func (w *memWAL) Load() ([]byte, error) { return append([]byte(nil), w.b...), nil }

func (w *memWAL) Append(b []byte) error {
	if w.fail != nil {
		return w.fail
	}
	w.b = append(w.b, b...)
	return nil
}

func (w *memWAL) Reset(b []byte) error {
	if w.fail != nil {
		return w.fail
	}
	w.b = append(w.b[:0:0], b...)
	return nil
}

func (w *memWAL) Truncate(n int64) error {
	if w.fail != nil {
		return w.fail
	}
	w.b = w.b[:n]
	return nil
}

func (w *memWAL) Sync() error  { w.syncs++; return nil }
func (w *memWAL) Close() error { w.closed = true; return nil }

// memManager is testManager with w attached as its write-ahead log.
func memManager(t testing.TB, tbl *table.Table, w *memWAL) *Manager {
	t.Helper()
	m := testManager(t, tbl, 1)
	if err := m.delta.attach(w); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMemoryBackendParity drives identical mutation sequences through a
// manager on a WAL file and one on the in-memory WAL: the
// WAL bytes must be identical at every step, and a "crash" (new manager
// replaying the surviving bytes) must restore the same backlog and flush to
// a byte-identical store on both.
func TestMemoryBackendParity(t *testing.T) {
	tbl := randomTable(t, 120, []int{4, 3, 3}, 5)
	path := filepath.Join(t.TempDir(), "parity.wal")
	mem := &memWAL{}

	mFile := walManager(t, tbl, 1, path)
	mMem := memManager(t, tbl, mem)

	rows := [][]core.Value{{0, 1, 2}, {1, 0, 0}, {0, 2, 1}}
	for _, m := range []*Manager{mFile, mMem} {
		if _, _, err := m.Append(rows, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Delete([][]core.Value{append([]core.Value(nil), tbl.Row(0, nil)...)}, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Update(
			[][]core.Value{{0, 1, 2}}, [][]core.Value{{1, 1, 2}}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	fileBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileBytes, mem.b) {
		t.Fatalf("WAL bytes diverge: file %d bytes, memory %d bytes", len(fileBytes), len(mem.b))
	}

	// Crash both: fresh managers over the same base replay the pending delta.
	mem2 := &memWAL{b: append([]byte(nil), mem.b...)}
	rFile := walManager(t, tbl, 1, path)
	rMem := memManager(t, tbl, mem2)
	if rFile.Backlog() != rMem.Backlog() || rMem.Backlog() == 0 {
		t.Fatalf("replayed backlog: file %d, memory %d", rFile.Backlog(), rMem.Backlog())
	}
	sf, err := rFile.Flush()
	if err != nil {
		t.Fatal(err)
	}
	sm, err := rMem.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if sf.Generation != sm.Generation {
		t.Fatalf("generations diverge: %d vs %d", sf.Generation, sm.Generation)
	}
	if !bytes.Equal(snapshotBytes(t, rFile.Snapshot().Store), snapshotBytes(t, rMem.Snapshot().Store)) {
		t.Fatal("flushed stores diverge between file and memory backends")
	}
	// The flush rewrote the memory WAL down to a bare header.
	if len(mem2.b) != len(walMagic)+3 {
		t.Fatalf("memory WAL holds %d bytes after flush, want bare header", len(mem2.b))
	}
	if err := rMem.Close(); err != nil {
		t.Fatal(err)
	}
	if mem2.syncs == 0 || !mem2.closed {
		t.Fatalf("Close must sync then close the WAL (syncs=%d closed=%v)", mem2.syncs, mem2.closed)
	}
	rFile.Close()
	mFile.Close()
	mMem.Close()
}

// TestWALAppendFailureSurfaces pins write-through honesty on the interface
// path: when the WAL rejects an append, the mutation fails and nothing is
// buffered.
func TestWALAppendFailureSurfaces(t *testing.T) {
	tbl := randomTable(t, 80, []int{3, 3, 3}, 7)
	w := &memWAL{}
	m := memManager(t, tbl, w)
	defer m.Close()

	w.fail = fmt.Errorf("disk full")
	if _, _, err := m.Append([][]core.Value{{0, 1, 1}}, nil); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("append over a failing WAL = %v, want disk full", err)
	}
	if m.Backlog() != 0 {
		t.Fatalf("failed append left %d rows buffered", m.Backlog())
	}
}

// TestRejectedWALStaysDetached pins the attach-after-validation contract: a
// WAL file the manager rejects — bad magic, another version, another shape,
// or codes the dictionaries never assigned — is neither attached nor kept
// open. The manager keeps serving memory-only, so a later append and refresh
// leave the rejected file byte-for-byte untouched (it may hold another
// relation's pending rows), and a second EnableWAL on a fresh path succeeds
// and replays nothing.
func TestRejectedWALStaysDetached(t *testing.T) {
	tbl, err := gen.Synthetic(gen.Config{T: 60, Cards: []int{3, 3}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// A valid two-row log for tbl's shape, damaged one way per case.
	valid := &memWAL{}
	l := newDeltaLog(2, false)
	if _, err := l.attach(valid, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.append([]core.Value{0, 1, 2, 2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	foreign := &memWAL{}
	l = newDeltaLog(2, false)
	if _, err := l.attach(foreign, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.append([]core.Value{7, 0}, nil, nil); err != nil {
		t.Fatal(err)
	}
	damaged := func(off int, b byte) []byte {
		img := append([]byte(nil), valid.b...)
		img[off] = b
		return img
	}
	cases := map[string][]byte{
		"bad magic":     damaged(0, 'X'),
		"version":       damaged(len(walMagic), walVersion-1),
		"dimensions":    damaged(len(walMagic)+1, 3),
		"measure flag":  damaged(len(walMagic)+2, 1),
		"foreign codes": foreign.b,
	}
	for name, img := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rejected := filepath.Join(dir, "rejected.wal")
			if err := os.WriteFile(rejected, img, 0o644); err != nil {
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
			defer m.Close()
			if err := m.EnableWAL(rejected); err == nil {
				t.Fatal("damaged WAL must be rejected")
			}
			if m.Backlog() != 0 {
				t.Fatalf("rejected WAL left %d rows buffered", m.Backlog())
			}
			if _, _, err := m.Append([][]core.Value{{1, 1}}, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			after, err := os.ReadFile(rejected)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, img) {
				t.Fatalf("rejected WAL was written to: %d bytes, was %d", len(after), len(img))
			}
			fresh := filepath.Join(dir, "fresh.wal")
			if err := m.EnableWAL(fresh); err != nil {
				t.Fatalf("EnableWAL on a fresh path after a rejection: %v", err)
			}
			if m.Backlog() != 0 {
				t.Fatalf("fresh WAL replayed %d rows", m.Backlog())
			}
			if _, _, err := m.Append([][]core.Value{{2, 0}}, nil); err != nil {
				t.Fatal(err)
			}
			if st, err := os.Stat(fresh); err != nil || st.Size() <= int64(len(walMagic)+3) {
				t.Fatalf("append after the retry did not reach the fresh WAL (stat %v, err %v)", st, err)
			}
		})
	}
}
