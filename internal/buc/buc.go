// Package buc implements BUC (Beyer & Ramakrishnan, SIGMOD'99): bottom-up
// iceberg cube computation by recursive counting-sort partitioning with
// Apriori pruning (paper Sec. 2.1.1). It serves as the iceberg baseline and
// as the substrate QC-DFS derives from.
package buc

import (
	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/psort"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Engine is BUC. It prunes bottom-up on min_sup and has no closedness
// checking, so it is iceberg-only.
var Engine = engine.Engine{Name: "BUC", Caps: engine.Capabilities{Iceberg: true}, Cube: cube}

type runner struct {
	t     *table.Table
	cfg   engine.Config
	out   sink.Sink
	parts []psort.Partitioner // one per dimension: no reentrant reuse
	tids  []core.TID
	vals  []core.Value
}

// cube computes the iceberg cube of t and emits every cell with
// count >= MinSup into out. Cells arrive in bottom-up partition order, each
// exactly once.
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

// recurse emits the cell for the current partition [lo,hi) (whose group-by
// values are in r.vals) and expands it on every remaining dimension.
func (r *runner) recurse(lo, hi, dim int) {
	r.emit(lo, hi)
	nd := r.t.NumDims()
	for d := dim; d < nd; d++ {
		b := r.parts[d].Partition(r.tids[lo:hi], r.t.Cols[d], r.t.Cards[d])
		for i, v := range b.Vals {
			blo, bhi := lo+b.Off[i], lo+b.Off[i+1]
			if int64(bhi-blo) < r.cfg.MinSup {
				continue // Apriori pruning
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
