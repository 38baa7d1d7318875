package sink

import (
	"sync"
	"testing"

	"ccubing/internal/core"
)

// TestMergerConcurrent drives many goroutines through one Merger and checks
// every emission reaches the downstream collector exactly once (run under
// -race to exercise the locking).
func TestMergerConcurrent(t *testing.T) {
	var col Collector
	m := NewMerger(&col)
	const workers = 8
	const perWorker = 2000 // > flushBatch to force mid-run flushes
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := m.Worker()
			vals := make([]core.Value, 3)
			for i := 0; i < perWorker; i++ {
				vals[0] = core.Value(g)
				vals[1] = core.Value(i)
				vals[2] = core.Star
				w.Emit(vals, int64(g*perWorker+i), 0)
			}
			w.Flush()
		}(g)
	}
	wg.Wait()
	if len(col.Cells) != workers*perWorker {
		t.Fatalf("collected %d cells, want %d", len(col.Cells), workers*perWorker)
	}
	seen := make(map[int64]bool, len(col.Cells))
	for _, c := range col.Cells {
		if int64(c.Values[0])*perWorker+int64(c.Values[1]) != c.Count {
			t.Fatalf("cell %v: count %d does not match values", c.Values, c.Count)
		}
		if seen[c.Count] {
			t.Fatalf("count %d delivered twice", c.Count)
		}
		seen[c.Count] = true
	}
}

// TestMergerAux checks measure values pass through to the downstream sink.
func TestMergerAux(t *testing.T) {
	var col Collector
	m := NewMerger(&col)
	w := m.Worker()
	w.Emit([]core.Value{1, core.Star}, 5, 2.5)
	w.Emit([]core.Value{2, core.Star}, 7, 0)
	w.Flush()
	if len(col.Cells) != 2 {
		t.Fatalf("collected %d cells, want 2", len(col.Cells))
	}
	if col.Cells[0].Aux != 2.5 || col.Cells[0].Count != 5 {
		t.Fatalf("first cell = %+v, want count 5 aux 2.5", col.Cells[0])
	}
	if col.Cells[1].Aux != 0 || col.Cells[1].Count != 7 {
		t.Fatalf("second cell = %+v, want count 7 aux 0", col.Cells[1])
	}
}

// TestMergerFlushEmpty checks Flush on an empty handle is a no-op.
func TestMergerFlushEmpty(t *testing.T) {
	var col Collector
	m := NewMerger(&col)
	m.Worker().Flush()
	if len(col.Cells) != 0 {
		t.Fatalf("collected %d cells, want 0", len(col.Cells))
	}
}
