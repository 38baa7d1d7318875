package sink

import (
	"sync"

	"ccubing/internal/core"
)

// Merger funnels cells emitted by concurrent workers into one downstream
// sink that need not be goroutine-safe. Each worker goroutine takes its own
// handle from Worker(); emissions buffer locally in the handle and flush in
// batches under the merger's lock, so the downstream sink only ever sees
// serialized calls. The parallel execution driver merges its per-worker
// outputs through this.
type Merger struct {
	mu   sync.Mutex
	next Sink
}

// NewMerger wraps next.
func NewMerger(next Sink) *Merger {
	return &Merger{next: next}
}

// flushBatch bounds how many cells a worker buffers between flushes; large
// enough to amortize the lock, small enough to keep buffers cache-resident.
const flushBatch = 512

// Worker returns a buffered emission handle for one goroutine. Handles are
// not goroutine-safe themselves; the owner must call Flush when done — cells
// still buffered at that point would otherwise be lost.
func (m *Merger) Worker() *MergeWorker {
	return &MergeWorker{m: m}
}

// MergeWorker is a single-goroutine Sink handle produced by Merger.Worker.
type MergeWorker struct {
	m     *Merger
	vals  []core.Value
	cells []bufferedCell
}

// bufferedCell is one cell awaiting a flush: width values starting at off in
// the worker's value arena, with the cell's count and stored measure
// aggregate.
type bufferedCell struct {
	off, width int32
	count      int64
	aux        float64
}

// Emit implements Sink.
func (w *MergeWorker) Emit(vals []core.Value, count int64, aux float64) {
	w.cells = append(w.cells, bufferedCell{
		off:   int32(len(w.vals)),
		width: int32(len(vals)),
		count: count,
		aux:   aux,
	})
	w.vals = append(w.vals, vals...)
	if len(w.cells) >= flushBatch {
		w.Flush()
	}
}

// Flush drains the buffer into the downstream sink, cell by cell, under the
// merger's lock.
func (w *MergeWorker) Flush() {
	if len(w.cells) == 0 {
		return
	}
	m := w.m
	m.mu.Lock()
	for _, c := range w.cells {
		m.next.Emit(w.vals[c.off:c.off+c.width], c.count, c.aux)
	}
	m.mu.Unlock()
	w.cells = w.cells[:0]
	w.vals = w.vals[:0]
}
