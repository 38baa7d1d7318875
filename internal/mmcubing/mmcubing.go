// Package mmcubing implements MM-Cubing (Shao, Han & Xin, SSDBM'04) and its
// closed extension C-Cubing(MM) (paper Sec. 3).
//
// MM-Cubing factorizes the lattice space by value frequency: per recursion
// level it picks per-dimension dense value sets small enough for an in-memory
// aggregation array, computes every cell made of dense values and wildcards
// by MultiWay simultaneous aggregation, and recurses on the partition of each
// remaining ("sparse") frequent value with that value fixed. To avoid
// duplicate outputs across sparse partitions, the sparse values of earlier
// dimensions are masked while later dimensions' partitions are processed —
// the paper's "special identifier" trick. This implementation never rewrites
// tuples: it keeps a Value Mask table (paper Sec. 3.3) consulted during
// grouping, so the original values stay available to the closedness measure.
//
// C-Cubing(MM) additionally aggregates the closedness measure through the
// dense arrays and tests it before each output, plus one shortcut the paper
// credits for its low-min_sup wins: when a partition's size equals min_sup,
// the only possible closed iceberg output is the closure of the whole
// partition, which is emitted directly without enumerating the subspace.
//
// One run owns one multiway.Arena and one scratch frame per recursion depth:
// the dense phases run one at a time and reuse the arrays of the phase
// before, so a run's allocations do not grow with its number of subspaces.
package mmcubing

import (
	"cmp"
	"slices"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/multiway"
	"ccubing/internal/psort"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// DefaultDenseBudget bounds the dense aggregation array, in cells. With
// ~20 bytes per cell this is the paper's "aggregation table ... generally
// limited to 4MB".
const DefaultDenseBudget = 200 << 10

// Engine is MM-Cubing / C-Cubing(MM) (Config.Closed selects which). It
// factorizes the lattice space and is insensitive to dimension order;
// measures aggregate through the dense arrays and the shortcut (paper
// Sec. 6.1).
var Engine = engine.Engine{Name: "CC(MM)", Caps: engine.Capabilities{Closed: true, Iceberg: true}, Cube: cube}

type runner struct {
	t      *table.Table
	cfg    engine.Config
	out    sink.Sink
	nd     int
	cols   core.Columns
	full   core.Mask
	budget int

	vals      []core.Value
	fixedMask core.Mask
	masked    [][]bool  // the Value Mask table: [dim][value]
	freq      [][]int64 // per-dim counting scratch, kept all-zero between uses
	part      psort.Partitioner

	// arena holds every dense phase's arrays: the phases run one at a time,
	// so each reuses the previous one's.
	arena multiway.Arena
	dims  []multiway.Dim
	// frames[depth] is the scratch of the mm call at that recursion depth
	// (the number of fixed dimensions); calls at one depth never overlap.
	frames []frame
}

// frame is one mm call's scratch, reused by every call at its depth.
type frame struct {
	dvals     [][]vf         // per active dimension, distinct values with frequencies
	cands     []cand         // dense candidates
	denseVals [][]core.Value // per active dimension, the chosen dense values
	sparse    []core.Value
	bVals     []core.Value // a copy of the partition boundaries
	bOff      []int
	child     []int // the child's active dimensions
	masked    []dv  // values this call masked
}

// vf pairs a distinct value with its frequency in the current partition.
type vf struct {
	v core.Value
	f int64
}

// cand is a dense-value candidate: value v of active dimension ai, with
// frequency f.
type cand struct {
	ai int
	v  core.Value
	f  int64
}

// dv is a masked value v of dimension d.
type dv struct {
	d int
	v core.Value
}

// cube computes the (closed) iceberg cube of t and emits cells into out.
func cube(t *table.Table, cfg engine.Config, out sink.Sink) error {
	newRunner(t, cfg, out).run()
	return nil
}

// newRunner returns the state of one run; the Arena and the frames belong to
// it alone (every parallel shard job builds its own).
func newRunner(t *table.Table, cfg engine.Config, out sink.Sink) *runner {
	r := &runner{
		t:      t,
		cfg:    cfg,
		out:    out,
		nd:     t.NumDims(),
		cols:   t.Cols,
		full:   core.LowBits(t.NumDims()),
		budget: cfg.DenseBudget,
		vals:   make([]core.Value, t.NumDims()),
		masked: make([][]bool, t.NumDims()),
		freq:   make([][]int64, t.NumDims()),
		frames: make([]frame, t.NumDims()+1),
	}
	if r.budget <= 0 {
		r.budget = DefaultDenseBudget
	}
	if r.budget < 2 {
		r.budget = 2
	}
	for d := range r.vals {
		r.vals[d] = core.Star
		r.masked[d] = make([]bool, t.Cards[d])
		r.freq[d] = make([]int64, t.Cards[d])
	}
	for depth := range r.frames {
		na := r.nd - depth
		r.frames[depth].dvals = make([][]vf, na)
		r.frames[depth].denseVals = make([][]core.Value, na)
	}
	return r
}

// run cubes the whole relation.
func (r *runner) run() {
	tids := make([]core.TID, r.t.NumTuples())
	for i := range tids {
		tids[i] = core.TID(i)
	}
	active := make([]int, r.nd)
	for i := range active {
		active[i] = i
	}
	r.mm(tids, active)
}

// mm processes one subspace: the tuples in tids with the dimensions in
// active unfixed (r.vals holds the fixed values of all other dimensions).
func (r *runner) mm(tids []core.TID, active []int) {
	if r.cfg.Closed && !r.cfg.DisableShortcut && int64(len(tids)) == r.cfg.MinSup {
		r.shortcut(tids, active)
		return
	}
	f := &r.frames[r.nd-len(active)]

	// Frequencies per active dimension: count into the pooled per-dim
	// arrays (all-zero between uses), then move the distinct (value, freq)
	// pairs out, restoring the zeros. Cost is O(|tids| · |active|),
	// independent of cardinalities.
	dvals := f.dvals
	for ai, d := range active {
		freq := r.freq[d]
		col := r.cols[d]
		for _, tid := range tids {
			freq[col[tid]]++
		}
		list := dvals[ai][:0]
		for _, tid := range tids {
			v := col[tid]
			if freq[v] > 0 {
				list = append(list, vf{v, freq[v]})
				freq[v] = 0
			}
		}
		slices.SortFunc(list, func(a, b vf) int { return cmp.Compare(a.v, b.v) })
		dvals[ai] = list
	}

	// Dense value selection: frequent unmasked values, greedily by frequency
	// while the array space fits both the configured budget and a bound
	// proportional to the partition (a dense array far larger than the data
	// cannot pay for its own initialization).
	cands := f.cands[:0]
	for ai, d := range active {
		for _, e := range dvals[ai] {
			if e.f >= r.cfg.MinSup && !r.masked[d][e.v] {
				cands = append(cands, cand{ai, e.v, e.f})
			}
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if a.f != b.f {
			return cmp.Compare(b.f, a.f)
		}
		if a.ai != b.ai {
			return cmp.Compare(a.ai, b.ai)
		}
		return cmp.Compare(a.v, b.v)
	})
	f.cands = cands
	budget := r.budget
	if rel := 8 * len(tids); rel < budget {
		budget = rel
	}
	if budget < 2 {
		budget = 2
	}
	denseVals := f.denseVals
	for ai := range denseVals {
		denseVals[ai] = denseVals[ai][:0]
	}
	size := 1
	for _, c := range cands {
		cur := len(denseVals[c.ai])
		var nsize int
		if cur == 0 {
			nsize = size * 2
		} else {
			nsize = size / (cur + 1) * (cur + 2)
		}
		if nsize > budget {
			continue
		}
		size = nsize
		denseVals[c.ai] = append(denseVals[c.ai], c.v)
	}

	// Dense phase: MultiWay over the array space.
	r.densePhase(tids, active, denseVals)

	// Sparse phase: one partition per frequent non-dense unmasked value,
	// masking each dimension's sparse values before later dimensions run.
	f.masked = f.masked[:0]
	for ai, d := range active {
		sparse := f.sparse[:0]
		dense := denseVals[ai] // sorted by densePhase
		for _, e := range dvals[ai] {
			if e.f >= r.cfg.MinSup && !r.masked[d][e.v] && !containsValue(dense, e.v) {
				sparse = append(sparse, e.v)
			}
		}
		f.sparse = sparse
		if len(sparse) > 0 {
			b := r.part.Partition(tids, r.cols[d], r.t.Cards[d])
			// Copy boundaries: nested recursion reuses the partitioner.
			f.bVals = append(f.bVals[:0], b.Vals...)
			f.bOff = append(f.bOff[:0], b.Off...)
			f.child = append(append(f.child[:0], active[:ai]...), active[ai+1:]...)
			si := 0
			for i, v := range f.bVals {
				for si < len(sparse) && sparse[si] < v {
					si++
				}
				if si == len(sparse) || sparse[si] != v {
					continue
				}
				r.vals[d] = v
				r.fixedMask = r.fixedMask.With(d)
				r.mm(tids[f.bOff[i]:f.bOff[i+1]], f.child)
				r.vals[d] = core.Star
				r.fixedMask = r.fixedMask.Without(d)
			}
		}
		// Mask this dimension's sparse values for the later dimensions.
		for _, v := range sparse {
			r.masked[d][v] = true
			f.masked = append(f.masked, dv{d, v})
		}
	}
	for _, m := range f.masked {
		r.masked[m.d][m.v] = false
	}
}

// containsValue reports membership in a sorted value slice.
func containsValue(sorted []core.Value, v core.Value) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == v
}

// densePhase aggregates the dense subspace and emits its qualifying cells.
func (r *runner) densePhase(tids []core.TID, active []int, denseVals [][]core.Value) {
	dims := r.dims[:0]
	for ai, dvs := range denseVals {
		if len(dvs) == 0 {
			continue
		}
		slices.Sort(dvs)
		dims = append(dims, multiway.Dim{D: active[ai], Vals: dvs})
	}
	r.dims = dims
	space, err := multiway.NewSpace(&r.arena, dims, r.t.Cards, r.cfg.Closed, r.cols, r.budget)
	if err != nil {
		// The greedy selection respects the budget; any failure here is a
		// programming error.
		panic(err)
	}
	if r.cfg.Measure != core.MeasureNone {
		space.SetMeasure(r.cfg.Measure, r.t.Aux)
	}
	for _, tid := range tids {
		space.Add(tid)
	}
	activeMask := r.full &^ r.fixedMask
	space.Process(func(members []multiway.Dim, dimVals []core.Value, count int64, cls core.Closedness, aux float64) {
		if count < r.cfg.MinSup {
			return
		}
		allMask := activeMask
		for i := range members {
			r.vals[members[i].D] = dimVals[i]
			allMask = allMask.Without(members[i].D)
		}
		if !r.cfg.Closed || cls.Closed(allMask) {
			r.out.Emit(r.vals, count, aux)
		}
		for i := range members {
			r.vals[members[i].D] = core.Star
		}
	})
}

// shortcut handles a partition whose size equals min_sup in closed mode: the
// only candidate output is the closure of the whole partition; it is emitted
// iff no masked value blocks a shared dimension (in which case the covering
// cell belongs to another partition and this one's cells are all non-closed).
func (r *runner) shortcut(tids []core.TID, active []int) {
	c := core.ExactClosedness(tids, r.cols)
	for _, d := range active {
		if c.Mask.Has(d) && r.masked[d][r.cols[d][c.Rep]] {
			return
		}
	}
	fixed := 0
	for _, d := range active {
		if c.Mask.Has(d) {
			r.vals[d] = r.cols[d][c.Rep]
			fixed++
		}
	}
	r.out.Emit(r.vals, int64(len(tids)), core.FoldStored(r.cfg.Measure, r.t.Aux, tids))
	for _, d := range active {
		if c.Mask.Has(d) {
			r.vals[d] = core.Star
		}
	}
}
