package parallel

import (
	"math/bits"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/sink"
)

// TestSeamAllocs gates the per-cell work of a partitioned run at exactly 0
// allocations once the buffers have grown: the projection pass's sinks
// (starInsert, which widens, and seam), a closed shard job's recorder, and
// the seam probes (probeAll, probe, hashVals). The collector is off for the
// measured window, so the counts are exact.
func TestSeamAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const nd, dim, cells = 4, 1, 2048
	const runs = cells / 2 // AllocsPerRun makes runs+1 calls
	rng := rand.New(rand.NewSource(7))
	full := make([][]core.Value, cells)      // cells fixing dim, as a shard job emits them
	projected := make([][]core.Value, cells) // the same cells without dim, as the projection pass emits them
	for i := range full {
		full[i] = []core.Value{core.Value(rng.Intn(9)), core.Value(rng.Intn(5)), core.Value(rng.Intn(9)), core.Star}
		projected[i] = slices.Delete(slices.Clone(full[i]), dim, dim+1)
	}
	count := func(i int) int64 { return int64(i%3 + 1) }
	// each returns a function emitting the next cell of cs on every call.
	each := func(cs [][]core.Value, emit func([]core.Value, int64, float64)) func() {
		i := 0
		return func() {
			emit(cs[i%cells], count(i), 0)
			i++
		}
	}
	gate := func(name string, runs int, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(runs, f); n != 0 {
			t.Fatalf("%s allocates %v per call; want 0", name, n)
		}
	}

	ins := &starInsert{next: &sink.Null{}, dim: dim, scratch: make([]core.Value, nd)}
	gate("starInsert.Emit", runs, each(projected, ins.Emit))

	// The seam and the recorder append to buffers that live until the run
	// returns: fill them once to grow, then measure refilling them within
	// that capacity.
	sm := &seam{cellBuf: cellBuf{pw: nd - 1}, dim: dim}
	rec := &recorder{cellBuf: cellBuf{pw: nd - 1}, next: &sink.Null{}, dim: dim}
	for i := range full {
		sm.Emit(projected[i], count(i), 0)
		rec.Emit(full[i], count(i), 0)
	}
	sm.vals, sm.counts, sm.aux = sm.vals[:0], sm.counts[:0], sm.aux[:0]
	rec.vals, rec.counts = rec.vals[:0], rec.counts[:0]
	gate("seam.Emit", runs, each(projected, sm.Emit))
	gate("recorder.Emit", runs, each(full, rec.Emit))

	sm.buildIndex()
	gate("seam.probeAll", 100, func() { sm.probeAll(&rec.cellBuf) })
	killed := 0
	for _, w := range sm.kill {
		killed += bits.OnesCount64(w)
	}
	if killed == 0 {
		t.Fatal("no probe killed a candidate; the gate would not reach probe's match path")
	}
}
