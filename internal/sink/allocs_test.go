package sink

// Steady-state allocation gates for the merge path: once a MergeWorker's
// batch buffers have grown to their working size, filtering, emitting and
// flushing must not allocate — the zero-copy pipeline's contract. The
// collector is off, so the counts are exact.

import (
	"runtime/debug"
	"testing"

	"ccubing/internal/core"
)

func TestMergeWorkerEmitSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := NewMerger(&Null{})
	w := m.Worker()
	vals := []core.Value{1, 2, 3, 4, 5, 6}
	// Warm past several flush cycles so vals/cells reach steady capacity.
	for i := 0; i < 4*flushBatch; i++ {
		w.Emit(vals, 1, 0.5)
	}
	if n := testing.AllocsPerRun(2000, func() { w.Emit(vals, 1, 0.5) }); n != 0 {
		t.Fatalf("MergeWorker.Emit allocates %v per op at steady state; want 0", n)
	}
	// Emit flushes once per flushBatch cells, which a per-Emit count rounds
	// away; flushing on every run counts Flush whole.
	if n := testing.AllocsPerRun(200, func() {
		w.Emit(vals, 1, 0.5)
		w.Flush()
	}); n != 0 {
		t.Fatalf("MergeWorker.Flush allocates %v per op; want 0", n)
	}
	// FixedDim in front of the worker, as on every shard job: one cell
	// fixing the dimension (forwarded), one with a wildcard there (dropped).
	f := &FixedDim{Next: w, Dim: 1}
	wild := []core.Value{1, core.Star, 3, 4, 5, 6}
	if n := testing.AllocsPerRun(2000, func() {
		f.Emit(vals, 1, 0.5)
		f.Emit(wild, 1, 0.5)
	}); n != 0 {
		t.Fatalf("FixedDim.Emit allocates %v per op at steady state; want 0", n)
	}
}
