package ccubing

import (
	"fmt"
	"time"

	"ccubing/internal/core"
	"ccubing/internal/partition"
	"ccubing/internal/rules"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// AttachMeasure computes a complex measure (paper Sec. 6.1) for an arbitrary
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
func AttachMeasure(ds *Dataset, cells []Cell, kind MeasureKind) error {
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

// Rule is a closed rule (paper Sec. 6.2): cells fixing the condition values
// necessarily carry the target values.
type Rule struct {
	CondDims []int
	CondVals []int32
	TargDims []int
	TargVals []int32
	Support  int64
}

// String renders the rule with the dataset-independent d<i>=v notation.
func (r Rule) String() string {
	return rules.Rule{
		CondDims: r.CondDims, CondVals: r.CondVals,
		TargDims: r.TargDims, TargVals: r.TargVals,
		Support: r.Support,
	}.String()
}

// MineRules derives closed rules from closed cells (typically the output of
// a closed-cube computation on this dataset). The result is verified against
// the relation before returning.
func MineRules(ds *Dataset, cells []Cell) ([]Rule, error) {
	ccells := make([]core.Cell, len(cells))
	for i, c := range cells {
		ccells[i] = core.Cell{Values: c.Values, Count: c.Count}
	}
	mined := rules.Mine(ds.t, ccells)
	if err := rules.Verify(ds.t, mined); err != nil {
		return nil, err
	}
	out := make([]Rule, len(mined))
	for i, r := range mined {
		out[i] = Rule{
			CondDims: r.CondDims, CondVals: r.CondVals,
			TargDims: r.TargDims, TargVals: r.TargVals,
			Support: r.Support,
		}
	}
	return out, nil
}

// PartitionOptions configures ComputePartitioned. The zero value picks the
// partitioning dimension automatically.
type PartitionOptions struct {
	// Dim is the 0-based partitioning dimension (paper Sec. 6.3 partitions on
	// the values of one dimension), honored only when ExplicitDim is set and
	// validated against the dataset's dimensionality. Without ExplicitDim the
	// highest-cardinality dimension is picked automatically; a positive Dim
	// without ExplicitDim is rejected (it would silently be ignored), while
	// the historical auto-pick sentinel Dim: -1 remains accepted.
	Dim int
	// ExplicitDim makes Dim authoritative. The flag exists so that the zero
	// value of PartitionOptions auto-picks instead of silently partitioning
	// on dimension 0.
	ExplicitDim bool
	// Buckets bounds the number of partition files (default 16).
	Buckets int
	// TempDir receives partition files (default: the system temp dir).
	TempDir string
}

// resolveDim validates popt against the dataset and returns the partitioning
// dimension.
func (popt PartitionOptions) resolveDim(ds *Dataset) (int, error) {
	nd := ds.t.NumDims()
	if popt.ExplicitDim {
		if popt.Dim < 0 || popt.Dim >= nd {
			return 0, fmt.Errorf("ccubing: partition dimension %d out of range [0,%d)", popt.Dim, nd)
		}
		return popt.Dim, nil
	}
	if popt.Dim > 0 {
		return 0, fmt.Errorf("ccubing: PartitionOptions.Dim %d set without ExplicitDim; set ExplicitDim, or leave Dim zero to auto-pick", popt.Dim)
	}
	dim := 0
	for d := 1; d < nd; d++ {
		if ds.t.Cards[d] > ds.t.Cards[dim] {
			dim = d
		}
	}
	return dim, nil
}

// ComputePartitioned is Compute for relations whose cubing working set
// exceeds memory (paper Sec. 6.3): the relation is spilled into partition
// files on one dimension, partitions are cubed one at a time, and the cells
// collapsing the partition dimension come from one final pass with that
// dimension moved last. The emitted cell set equals Compute's, including
// measures: partition files carry the aux column, so per-cell aggregates
// survive the spill (cells fixing the partition dimension keep all their
// tuples inside one partition; the final pass sees every tuple). With
// Options.Workers > 1 up to that many partitions are loaded and cubed
// concurrently, trading the one-partition memory bound for a Workers-
// partition bound.
func ComputePartitioned(ds *Dataset, opt Options, popt PartitionOptions, visit func(Cell)) (Stats, error) {
	opt = opt.withDefaults()
	if ds == nil || ds.t == nil {
		return Stats{}, fmt.Errorf("ccubing: nil dataset")
	}
	alg := opt.Algorithm
	if alg == AlgAuto {
		alg = Advise(ds, opt.MinSup, opt.Closed)
	}
	st := Stats{Algorithm: alg}
	eng, ecfg, err := resolveEngine(ds, opt, alg)
	if err != nil {
		return st, err
	}
	dim, err := popt.resolveDim(ds)
	if err != nil {
		return st, err
	}
	out := newVisitSink(visit, identityPerm(ds.t.NumDims()), ds.t.NumDims(), opt, &st)
	run := func(t *table.Table, s sink.Sink) error { return eng.Run(t, ecfg, s) }
	start := time.Now()
	err = partition.Run(ds.t, partition.Config{
		Dim:     dim,
		Buckets: popt.Buckets,
		TempDir: popt.TempDir,
		Workers: resolveWorkers(opt.Workers),
	}, run, out)
	st.Elapsed = time.Since(start)
	return st, err
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
