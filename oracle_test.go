package ccubing

import (
	"fmt"

	"ccubing/internal/core"
)

// attachMeasure computes a complex measure (paper Sec. 6.1) for an arbitrary
// list of cells — collected from any run, or written by hand — filling each
// cell's Aux in place with the stored aggregate: the sum for MeasureSum and
// MeasureAvg (avg is the algebraic pair (Aux, Count); divide to present), the
// extremum for MeasureMin/MeasureMax. Every engine aggregates Options.Measure
// during its own pass; this independent rescan is bit-identical to what they
// emit, which makes it the oracle the equivalence suite checks them against.
// Lemma 1 guarantees the closed cube on count loses no closed cells of any
// measure, so attaching measures after closed cubing is sound. All cells
// aggregate in one scan per distinct fixed-dimension pattern (cuboid) rather
// than one scan per cell: cost is O(T × cuboids + cells), so even full
// closed-cube outputs are practical.
func attachMeasure(ds *Dataset, cells []Cell, kind MeasureKind) error {
	if kind == MeasureNone {
		return nil
	}
	if ds.t.Aux == nil {
		return fmt.Errorf("ccubing: dataset has no measure column; call SetMeasure first")
	}
	if len(cells) == 0 {
		return nil
	}
	t := ds.t

	// Group cells by their fixed-dimension pattern and index each group by
	// packed fixed values; a tuple then matches at most one cell per group.
	type cellGroup struct {
		dims  []int            // fixed dimensions of the pattern
		index map[string][]int // packed fixed values -> cell indices
	}
	groups := make(map[uint64]*cellGroup)
	var buf []byte
	for ci := range cells {
		var mask uint64
		for d, v := range cells[ci].Values {
			if v != Star {
				mask |= 1 << uint(d)
			}
		}
		g := groups[mask]
		if g == nil {
			g = &cellGroup{index: make(map[string][]int)}
			for d, v := range cells[ci].Values {
				if v != Star {
					g.dims = append(g.dims, d)
				}
			}
			groups[mask] = g
		}
		buf = buf[:0]
		for _, v := range cells[ci].Values {
			if v != Star {
				buf = core.AppendValue(buf, v)
			}
		}
		g.index[string(buf)] = append(g.index[string(buf)], ci)
	}

	aggs := make([]core.MeasureAgg, len(cells))
	for i := range aggs {
		aggs[i] = core.NewMeasureAgg(kind)
	}
	n := t.NumTuples()
	for _, g := range groups {
		for tid := 0; tid < n; tid++ {
			buf = buf[:0]
			for _, d := range g.dims {
				buf = core.AppendValue(buf, t.Cols[d][tid])
			}
			for _, ci := range g.index[string(buf)] {
				aggs[ci].Add(t.Aux[tid])
			}
		}
	}
	for ci := range cells {
		cells[ci].Aux = aggs[ci].Stored()
	}
	return nil
}
