package sink

import "ccubing/internal/core"

// BatchCell describes one cell inside a batch emission: Width values starting
// at Off in the batch's shared value arena, with the cell's count and
// measure value. Aux carries the measure's stored aggregate
// (core.MeasureAgg.Stored): the running sum for sum/avg — avg is the
// algebraic pair (Aux, Count) — and the extremum for min/max, so two
// BatchCells describing the same group-by combine exactly.
type BatchCell struct {
	Off   int32
	Width int32
	Count int64
	Aux   float64
}

// Combine folds src (a partial aggregate of the same group-by, e.g. from
// another shard) into c: counts add, and the stored measure vector merges
// under kind — distributive for sum/min/max, pairwise (sum, count) for avg.
//
//ccubing:hotpath
func (c *BatchCell) Combine(src BatchCell, kind core.MeasureKind) {
	c.Count += src.Count
	c.Aux = core.CombineStored(kind, c.Aux, src.Aux)
}

// BatchSink is the bulk-transfer fast path of the merge pipeline: a sink that
// accepts a whole flush batch in one call instead of one Emit per cell, so
// per-cell interface dispatch moves out of the merger's critical section.
// It exists for the merger → cubestore.BuilderSink hand-off of parallel
// Materialize builds; a sink that would only loop over the batch calling its
// own Emit should not implement it — the merger does that loop itself.
// Like Emit, the arena and cells slices are only valid for the duration of
// the call; implementations that retain cells must copy.
type BatchSink interface {
	EmitBatch(arena []core.Value, cells []BatchCell)
}
