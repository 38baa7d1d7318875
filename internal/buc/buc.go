// Package buc implements BUC (Beyer & Ramakrishnan, SIGMOD'99): bottom-up
// iceberg cube computation by recursive counting-sort partitioning with
// Apriori pruning (paper Sec. 2.1.1). It serves as the iceberg baseline and
// as the substrate QC-DFS derives from.
package buc

import (
	"fmt"

	"ccubing/internal/core"
	"ccubing/internal/psort"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Config parameterizes a BUC run.
type Config struct {
	// MinSup is the iceberg threshold on count; cells below it are pruned.
	MinSup int64
	// Measure optionally aggregates the table's Aux column per output cell
	// into the stored aggregate every emission carries (paper Sec. 6.1). Avg
	// is delivered as its algebraic pair: (stored sum, count).
	Measure core.MeasureKind
}

type runner struct {
	t     *table.Table
	cfg   Config
	out   sink.Sink
	parts []psort.Partitioner // one per dimension: no reentrant reuse
	tids  []core.TID
	vals  []core.Value
}

// Run computes the iceberg cube of t and emits every cell with
// count >= MinSup into out. Cells arrive in bottom-up partition order, each
// exactly once.
func Run(t *table.Table, cfg Config, out sink.Sink) error {
	if cfg.MinSup < 1 {
		return fmt.Errorf("buc: min_sup %d < 1", cfg.MinSup)
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("buc: %w", err)
	}
	if cfg.Measure != core.MeasureNone && t.Aux == nil {
		return fmt.Errorf("buc: measure %v requested but table has no aux column", cfg.Measure)
	}
	n := t.NumTuples()
	if int64(n) < cfg.MinSup {
		return nil
	}
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
