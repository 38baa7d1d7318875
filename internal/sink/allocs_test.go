package sink

// Steady-state allocation regression tests for the merge path: once a
// MergeWorker's batch buffers have grown to their working size, emitting and
// flushing must not allocate — the zero-copy pipeline's contract. Bounds are
// small but nonzero where a GC can empty a sync.Pool mid-measurement.

import (
	"testing"

	"ccubing/internal/core"
)

func TestMergeWorkerEmitSteadyStateAllocs(t *testing.T) {
	m := NewMerger(&Null{})
	w := m.Worker()
	defer w.Close()
	vals := []core.Value{1, 2, 3, 4, 5, 6}
	// Warm past several flush cycles so vals/cells reach steady capacity.
	for i := 0; i < 4*flushBatch; i++ {
		w.Emit(vals, 1, 0.5)
	}
	n := testing.AllocsPerRun(2000, func() {
		w.Emit(vals, 1, 0.5)
	})
	if n > 0.01 {
		t.Fatalf("MergeWorker.Emit allocates %v per op at steady state; want 0", n)
	}
}

func TestMergerWorkerReuse(t *testing.T) {
	// Worker handles are pooled: a Close followed by a Worker must not leak
	// one merger's state into the next (cells from the closed worker were
	// flushed, buffers reset).
	m1 := NewMerger(&Null{})
	w := m1.Worker()
	w.Emit([]core.Value{1, 2}, 3, 0)
	w.Close()
	next := &Collector{}
	m2 := NewMerger(next)
	w2 := m2.Worker()
	w2.Emit([]core.Value{7, 8}, 9, 0)
	w2.Close()
	if len(next.Cells) != 1 || next.Cells[0].Count != 9 {
		t.Fatalf("pooled worker leaked state: %v", next.Cells)
	}
}
