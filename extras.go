package ccubing

import (
	"fmt"
	"slices"
	"time"

	"ccubing/internal/core"
	"ccubing/internal/parallel"
	"ccubing/internal/rules"
)

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
	// Buckets bounds the number of bucket files the relation is spilled into
	// (default 16; never more than the partition dimension has values). All
	// of them are open during the spill, and a bucket is the unit a worker
	// loads, so more buckets mean smaller resident copies.
	Buckets int
	// TempDir receives the bucket files, in a directory of their own that is
	// removed before ComputePartitioned returns (default: the system temp
	// dir).
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

// ComputePartitioned is Compute with the shard copies of the relation kept on
// disk (paper Sec. 6.3). It runs the decomposition a Workers > 1 Compute
// runs: the relation is cut on one dimension, the parts are cubed
// independently, and the cells collapsing that dimension come from one pass
// over the projection without it. The parts are spilled to at most
// PartitionOptions.Buckets files and loaded one per worker, so at most
// Options.Workers bucket copies are resident at a time. That is all the spill
// bounds: the Dataset itself, the projection pass and, in closed mode, a
// record of every emitted cell fixing the partition dimension stay in memory.
// The emitted cell set equals Compute's, measures bit for bit.
func ComputePartitioned(ds *Dataset, opt Options, popt PartitionOptions, visit func(Cell)) (Stats, error) {
	opt = opt.withDefaults()
	plan, err := planCompute(ds, opt)
	st := Stats{Algorithm: plan.alg}
	if err != nil {
		return st, err
	}
	dim, err := popt.resolveDim(ds)
	if err != nil {
		return st, err
	}
	buckets := popt.Buckets
	if buckets <= 0 {
		buckets = 16
	}
	out := newVisitSink(visit, plan.perm, plan.t.NumDims(), opt, &st)
	start := time.Now()
	err = parallel.Run(plan.t, plan.eng, plan.ecfg, parallel.Config{
		Workers: plan.workers,
		Dim:     slices.Index(plan.perm, dim), // where the plan's ordering put it
		Buckets: buckets,
		TempDir: popt.TempDir,
	}, out)
	st.Elapsed = time.Since(start)
	return st, err
}
