// Package qcdfs implements QC-DFS, the Quotient Cube depth-first closed-cube
// algorithm of Lakshmanan, Pei & Han (VLDB'02), derived from BUC: the
// raw-data-based checking baseline every experiment in the paper compares
// against (Sec. 2.2.1).
//
// For each partition reached by BUC-style expansion, the algorithm SCANS the
// dimensions outside the current group-by: if every tuple of the partition
// shares one value on such a dimension, the cell is extended by that value
// (computing the upper bound / closure of its class); if the shared
// dimension lies before the current expansion position, the closure was
// already produced by an earlier branch and the whole partition is pruned
// ("jump" pruning). The per-partition scanning is exactly the overhead the
// paper's aggregation-based checking eliminates.
package qcdfs

import (
	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/psort"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Engine is QC-DFS. The original computes the full closed (quotient) cube;
// the MinSup threshold generalizes it to closed iceberg cubes for comparison
// at equal semantics. Closed mode only.
var Engine = engine.Engine{Name: "QC-DFS", Caps: engine.Capabilities{Closed: true}, Cube: cube}

type runner struct {
	t     *table.Table
	cfg   engine.Config
	out   sink.Sink
	parts []psort.Partitioner
	tids  []core.TID
	vals  []core.Value
	ext   []int // scratch: dimensions fixed by closure extension
}

// cube computes the closed iceberg cube of t, emitting every closed cell with
// count >= MinSup exactly once.
func cube(t *table.Table, cfg engine.Config, out sink.Sink) error {
	n := t.NumTuples()
	r := &runner{
		t:     t,
		cfg:   cfg,
		out:   out,
		parts: make([]psort.Partitioner, t.NumDims()),
		tids:  make([]core.TID, n),
		vals:  make([]core.Value, t.NumDims()),
	}
	for i := range r.tids {
		r.tids[i] = core.TID(i)
	}
	for d := range r.vals {
		r.vals[d] = core.Star
	}
	r.recurse(0, n, 0)
	return nil
}

// recurse processes the partition [lo,hi) whose fixed values are in r.vals,
// with expansion allowed on dimensions >= dim.
func (r *runner) recurse(lo, hi, dim int) {
	// Closure scan: extend the cell on every free dimension whose value is
	// shared by all tuples of the partition; jump-prune if such a dimension
	// precedes the expansion position (that closed cell was or will be
	// produced when that dimension itself is expanded).
	extStart := len(r.ext)
	defer func() {
		for _, d := range r.ext[extStart:] {
			r.vals[d] = core.Star
		}
		r.ext = r.ext[:extStart]
	}()
	nd := r.t.NumDims()
	part := r.tids[lo:hi]
	for d := 0; d < nd; d++ {
		if r.vals[d] != core.Star {
			continue
		}
		col := r.t.Cols[d]
		shared := col[part[0]]
		allShare := true
		for _, tid := range part[1:] {
			if col[tid] != shared {
				allShare = false
				break // scanning stops at the first discrepancy
			}
		}
		if !allShare {
			continue
		}
		if d < dim {
			return // jump pruning: covered by an earlier expansion
		}
		r.vals[d] = shared
		r.ext = append(r.ext, d)
	}

	r.emit(lo, hi)

	for d := dim; d < nd; d++ {
		if r.vals[d] != core.Star {
			continue // fixed by closure extension: expanding would duplicate
		}
		b := r.parts[d].Partition(part, r.t.Cols[d], r.t.Cards[d])
		for i, v := range b.Vals {
			blo, bhi := lo+b.Off[i], lo+b.Off[i+1]
			if int64(bhi-blo) < r.cfg.MinSup {
				continue
			}
			r.vals[d] = v
			r.recurse(blo, bhi, d+1)
			r.vals[d] = core.Star
		}
	}
}

func (r *runner) emit(lo, hi int) {
	r.out.Emit(r.vals, int64(hi-lo), core.FoldStored(r.cfg.Measure, r.t.Aux, r.tids[lo:hi]))
}
