package ccubing

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ccubing/internal/core"
	"ccubing/internal/cubestore"
	"ccubing/internal/psort"
	"ccubing/internal/refresh"
)

// PredOp discriminates the per-dimension predicate forms of a QuerySpec.
type PredOp int

const (
	// PredAny matches every value (wildcard dimension).
	PredAny PredOp = iota
	// PredEq matches exactly Value.
	PredEq
	// PredRange matches coded values in the inclusive interval [Lo, Hi].
	PredRange
	// PredIn matches any coded value in Set; an empty set matches nothing.
	PredIn
)

// Predicate constrains one dimension of a sub-cube selection.
type Predicate struct {
	Op     PredOp
	Value  int32   // PredEq
	Lo, Hi int32   // PredRange, inclusive
	Set    []int32 // PredIn
}

// QuerySpec is a conjunctive sub-cube selection: one predicate per dimension,
// the cube algebra's sub-cube operation (predicates over dimensions) rather
// than a single cell. Build one directly or parse it with Cube.ParseSpec.
type QuerySpec []Predicate

// OrderBy ranks aggregate rows for top-k truncation.
type OrderBy int

const (
	// ByCount ranks by aggregated count, descending.
	ByCount OrderBy = iota
	// ByAux ranks by the aggregated measure value, descending.
	ByAux
)

// AggregateOptions configures Cube.Aggregate.
type AggregateOptions struct {
	// GroupBy lists dimensions (by name, or decimal index for nameless data)
	// whose value combinations form the result rows; empty computes one
	// grand-total row under the predicates.
	GroupBy []string
	// TopK keeps only the k best rows by By; 0 keeps every group.
	TopK int
	// By picks the top-k ranking measure.
	By OrderBy
	// AuxAgg picks how measure values combine across a group: MeasureSum,
	// MeasureMin, MeasureMax, or MeasureAvg — the last only on cubes
	// materialized with MeasureAvg, whose cells store the algebraic
	// (sum, count) pair: group sums are added and divided by the group count.
	// MeasureNone defaults to the combiner matching the cube's own measure
	// (avg for avg cubes, sum otherwise). It must match the measure the cube
	// was materialized with for the aggregated Aux to be meaningful.
	AuxAgg MeasureKind
}

// ParseOrderBy resolves the ranking names shared by the serving surfaces
// (ccserve's order_by, ccube's -by): "count" (or empty) and "aux" (alias
// "measure").
func ParseOrderBy(s string) (OrderBy, error) {
	switch s {
	case "", "count":
		return ByCount, nil
	case "aux", "measure":
		return ByAux, nil
	}
	return ByCount, fmt.Errorf("ccubing: unknown order-by %q (want count or aux)", s)
}

// ParseAuxAgg resolves the measure-combiner names shared by the serving
// surfaces: "sum", "min", "max" and "avg" (empty defaults to the cube's own
// measure combiner — see AggregateOptions.AuxAgg).
func ParseAuxAgg(s string) (MeasureKind, error) {
	switch s {
	case "":
		return MeasureNone, nil
	case "sum":
		return MeasureSum, nil
	case "min":
		return MeasureMin, nil
	case "max":
		return MeasureMax, nil
	case "avg":
		return MeasureAvg, nil
	}
	return MeasureNone, fmt.Errorf("ccubing: unknown aux-agg %q (want sum, min, max or avg)", s)
}

// ParseSpec builds a QuerySpec from one component per dimension, label-aware
// for cubes with dictionaries and coded otherwise:
//
//	"*" or ""       wildcard
//	"v"             exact value
//	"lo..hi"        inclusive range — numeric on coded cubes, lexicographic
//	                over dictionary labels on labeled cubes
//	"a|b|c"         value set
//
// Unknown labels are honest misses, not errors: they resolve to predicates
// matching nothing (the cell set is provably empty), mirroring QueryLabels.
// Labels containing "|" or ".." cannot be expressed in this syntax; build the
// QuerySpec directly for those.
func (c *Cube) ParseSpec(components []string) (QuerySpec, error) {
	if len(components) != c.NumDims() {
		return nil, fmt.Errorf("ccubing: spec has %d components, want %d", len(components), c.NumDims())
	}
	st := c.snap()
	spec := make(QuerySpec, len(components))
	for d, comp := range components {
		p, err := c.parsePred(st, d, comp)
		if err != nil {
			return nil, err
		}
		spec[d] = p
	}
	return spec, nil
}

func (c *Cube) parsePred(st *refresh.Snapshot, d int, comp string) (Predicate, error) {
	switch {
	case comp == "*" || comp == "":
		return Predicate{Op: PredAny}, nil
	case strings.Contains(comp, ".."):
		parts := strings.SplitN(comp, "..", 2)
		lo, hi := parts[0], parts[1]
		if st.Dicts == nil {
			l, err1 := parseCode(lo)
			h, err2 := parseCode(hi)
			if err1 != nil || err2 != nil {
				return Predicate{}, fmt.Errorf("ccubing: bad range %q on dimension %s", comp, c.names[d])
			}
			return Predicate{Op: PredRange, Lo: l, Hi: h}, nil
		}
		// Labeled: a lexicographic label interval resolves to the set of
		// dictionary codes whose label falls inside it (dictionary codes are
		// assigned in first-occurrence order, so a code range is meaningless).
		var set []int32
		for code, name := range st.Dicts[d].Names() {
			if name >= lo && name <= hi {
				set = append(set, int32(code))
			}
		}
		return Predicate{Op: PredIn, Set: set}, nil
	case strings.Contains(comp, "|"):
		var set []int32
		for _, part := range strings.Split(comp, "|") {
			if st.Dicts == nil {
				v, err := parseCode(part)
				if err != nil {
					return Predicate{}, fmt.Errorf("ccubing: bad value %q on dimension %s", part, c.names[d])
				}
				set = append(set, v)
			} else if code, ok := st.Dicts[d].Lookup(part); ok {
				set = append(set, code) // unknown labels match nothing: drop
			}
		}
		return Predicate{Op: PredIn, Set: set}, nil
	default:
		if st.Dicts == nil {
			v, err := parseCode(comp)
			if err != nil {
				return Predicate{}, fmt.Errorf("ccubing: bad value %q on dimension %s", comp, c.names[d])
			}
			return Predicate{Op: PredEq, Value: v}, nil
		}
		code, ok := st.Dicts[d].Lookup(comp)
		if !ok {
			return Predicate{Op: PredIn}, nil // empty set: provably empty
		}
		return Predicate{Op: PredEq, Value: code}, nil
	}
}

// parseCode parses a non-negative coded dimension value.
func parseCode(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad coded value %q", s)
	}
	return int32(v), nil
}

// storeSpec validates a QuerySpec and lowers it to the store's form.
func (c *Cube) storeSpec(spec QuerySpec) (cubestore.Spec, error) {
	if len(spec) != c.NumDims() {
		return cubestore.Spec{}, fmt.Errorf("ccubing: spec has %d predicates, want %d", len(spec), c.NumDims())
	}
	out := cubestore.Spec{Preds: make([]cubestore.Pred, len(spec))}
	for d, p := range spec {
		sp := cubestore.Pred{Val: p.Value, Lo: p.Lo, Hi: p.Hi, Set: p.Set}
		switch p.Op {
		case PredAny:
			sp.Kind = cubestore.PredAny
		case PredEq:
			sp.Kind = cubestore.PredEq
		case PredRange:
			sp.Kind = cubestore.PredRange
		case PredIn:
			sp.Kind = cubestore.PredIn
		default:
			return cubestore.Spec{}, fmt.Errorf("ccubing: unknown predicate op %d on dimension %s", p.Op, c.names[d])
		}
		out.Preds[d] = sp
	}
	return out, nil
}

// Select visits every stored closed cell matching the spec — the predicate
// generalization of Slice: each constrained dimension must be fixed by the
// cell to a satisfying value. Exact at any iceberg threshold. Return false
// from visit to stop early.
func (c *Cube) Select(spec QuerySpec, visit func(Cell) bool) error {
	ss, err := c.storeSpec(spec)
	if err != nil {
		return err
	}
	c.snap().Store.Select(ss, func(cc core.Cell) bool {
		return visit(Cell{Values: cc.Values, Count: cc.Count, Aux: c.PresentAux(cc.Aux, cc.Count)})
	})
	return nil
}

// Aggregate answers a group-by query under per-dimension predicates: one row
// per distinct value combination on the GroupBy dimensions among matching
// tuples, carrying the aggregated count (and measure, combined per AuxAgg).
// Rows fix exactly the GroupBy dimensions and arrive ranked best first (ties
// by value, so results are deterministic); TopK truncates.
//
// The exact result reports whether the aggregates are exact. It is true for
// cubes materialized at MinSup 1 and for iceberg cubes whose store carries
// the residual summary of the pruned mass (every cube Materialize builds at
// MinSup > 1): the residual folds the sub-threshold combinations back in, so
// the aggregates equal a MinSup-1 recomputation. Only an iceberg store built
// without a residual degrades to exact=false, where every aggregate is a
// lower bound. Serving surfaces forward the flag so clients never mistake a
// bound for a total. See the cubestore documentation for the closure-dedup
// execution.
func (c *Cube) Aggregate(spec QuerySpec, opt AggregateOptions) (rows []Cell, exact bool, err error) {
	ss, err := c.storeSpec(spec)
	if err != nil {
		return nil, false, err
	}
	if opt.TopK < 0 {
		return nil, false, fmt.Errorf("ccubing: negative top-k %d", opt.TopK)
	}
	st := c.snap()
	sopt := cubestore.AggOptions{TopK: opt.TopK}
	switch opt.By {
	case ByCount:
		sopt.By = cubestore.ByCount
	case ByAux:
		if !st.Store.HasAux() {
			return nil, false, fmt.Errorf("ccubing: cube has no measure to rank by")
		}
		sopt.By = cubestore.ByAux
	default:
		return nil, false, fmt.Errorf("ccubing: unknown order-by %d", opt.By)
	}
	auxAgg := opt.AuxAgg
	if auxAgg == MeasureNone && c.measure == MeasureAvg {
		// Default the combiner to the cube's own measure: avg cubes average.
		auxAgg = MeasureAvg
	}
	avgAux := false
	switch auxAgg {
	case MeasureNone, MeasureSum:
		sopt.AuxAgg = cubestore.AuxSum
	case MeasureMin:
		sopt.AuxAgg = cubestore.AuxMin
	case MeasureMax:
		sopt.AuxAgg = cubestore.AuxMax
	case MeasureAvg:
		if c.measure != MeasureAvg {
			return nil, false, fmt.Errorf("ccubing: aux-agg avg needs a cube materialized with MeasureAvg (this cube carries %v)", c.measure)
		}
		// Algebraic: sum the stored per-cell sums, divide by the group count
		// once the groups are final.
		avgAux = true
		sopt.AuxAgg = cubestore.AuxSum
	default:
		return nil, false, fmt.Errorf("ccubing: measure kind %v cannot aggregate over closed cells", opt.AuxAgg)
	}
	if avgAux && sopt.By == cubestore.ByAux {
		// The store would rank raw sums; the caller asked for means. Fetch
		// every group, divide, then rank and truncate here.
		sopt.TopK = 0
	}
	seen := make(map[int]bool, len(opt.GroupBy))
	for _, name := range opt.GroupBy {
		d, err := c.resolveDim(name)
		if err != nil {
			return nil, false, err
		}
		if !seen[d] {
			seen[d] = true
			sopt.GroupBy = append(sopt.GroupBy, d)
		}
	}
	exact = c.minSup <= 1 || st.Store.HasResidual()
	qc := c.cache.Load()
	var key []byte
	if qc != nil {
		key = appendAggKey(appendCacheKey(make([]byte, 0, 9+8*c.NumDims()), st.Generation, cacheKindAgg), ss, sopt)
		if avgAux {
			// The avg presentation changes the rows (and possibly the
			// truncation), so it must not share entries with plain sum.
			key = append(key, 1)
			key = binary.BigEndian.AppendUint32(key, uint32(opt.TopK))
		}
		if v, hit := qc.Get(key); hit {
			e := v.(aggEntry)
			return copyCells(e.rows), e.exact, nil
		}
	}
	srows := st.Store.Aggregate(ss, sopt)
	out := make([]Cell, len(srows))
	for i, r := range srows {
		out[i] = Cell{Values: r.Values, Count: r.Count, Aux: r.Aux}
	}
	if avgAux {
		for i := range out {
			out[i].Aux = core.Present(core.MeasureAvg, out[i].Aux, out[i].Count)
		}
		if sopt.By == cubestore.ByAux {
			out = topAggRows(out, opt.TopK)
		}
	}
	if qc != nil {
		// The cached rows become shared; hand the caller a copy, like the hit
		// path does.
		qc.Put(key, aggEntry{rows: out, exact: exact})
		return copyCells(out), exact, nil
	}
	return out, exact, nil
}

// topAggRows ranks aggregate rows by measure, best first, and keeps the k
// best (every row when k is 0), mirroring the store's order: rank descending,
// ties by values ascending (Star sorts last).
func topAggRows(rows []Cell, k int) []Cell {
	return psort.TopK(rows, k, func(a, b Cell) int {
		if a.Aux != b.Aux {
			if a.Aux > b.Aux {
				return -1
			}
			return 1
		}
		return slices.CompareFunc(a.Values, b.Values, func(x, y int32) int {
			return cmp.Compare(uint32(x), uint32(y))
		})
	})
}

// aggEntry is one cached aggregate result.
type aggEntry struct {
	rows  []Cell
	exact bool
}

// copyCells deep-copies result rows so cached entries stay immutable. The
// copies' values share one allocation.
func copyCells(rows []Cell) []Cell {
	out := make([]Cell, len(rows))
	var slab []int32
	if len(rows) > 0 {
		slab = make([]int32, 0, len(rows)*len(rows[0].Values))
	}
	for i, r := range rows {
		n := len(slab)
		slab = append(slab, r.Values...)
		out[i] = Cell{Values: slab[n:len(slab):len(slab)], Count: r.Count, Aux: r.Aux}
	}
	return out
}

// appendAggKey serializes a lowered aggregate query in normalized form:
// predicate sets and group-by dimensions are order-insensitive in the result,
// so both are sorted before packing — equivalent queries share one entry.
func appendAggKey(key []byte, ss cubestore.Spec, sopt cubestore.AggOptions) []byte {
	for _, p := range ss.Preds {
		key = append(key, byte(p.Kind))
		switch p.Kind {
		case cubestore.PredEq:
			key = binary.BigEndian.AppendUint32(key, uint32(p.Val))
		case cubestore.PredRange:
			key = binary.BigEndian.AppendUint32(key, uint32(p.Lo))
			key = binary.BigEndian.AppendUint32(key, uint32(p.Hi))
		case cubestore.PredIn:
			set := append([]int32(nil), p.Set...)
			sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
			key = binary.BigEndian.AppendUint32(key, uint32(len(set)))
			for _, v := range set {
				key = binary.BigEndian.AppendUint32(key, uint32(v))
			}
		}
	}
	key = append(key, byte(sopt.By), byte(sopt.AuxAgg))
	key = binary.BigEndian.AppendUint32(key, uint32(sopt.TopK))
	gb := append([]int(nil), sopt.GroupBy...)
	sort.Ints(gb)
	key = binary.BigEndian.AppendUint32(key, uint32(len(gb)))
	for _, d := range gb {
		key = binary.BigEndian.AppendUint32(key, uint32(d))
	}
	return key
}

// resolveDim maps a dimension name (or decimal index) to its position.
func (c *Cube) resolveDim(name string) (int, error) {
	for d, n := range c.names {
		if n == name {
			return d, nil
		}
	}
	if d, err := strconv.Atoi(name); err == nil && d >= 0 && d < c.NumDims() {
		return d, nil
	}
	return 0, fmt.Errorf("ccubing: unknown dimension %q", name)
}
