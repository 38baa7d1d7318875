// Residual construction is builder-side mutation: a Residual is immutable
// after build()/ComputeResidual return, and Store.res is only assigned by the
// builders (Build, Open, MergeDelta).

package cubestore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ccubing/internal/core"
	"ccubing/internal/psort"
)

// Residual summarizes the mass an iceberg cube pruned away: the distinct
// all-dimensions-fixed base cells whose multiplicity fell below the iceberg
// threshold, each with its count and stored measure aggregate (in the style
// of the Cubes Convexes borders). A store carrying a residual answers
// aggregate queries exactly at ANY group-by: a group-by combination absent
// from the stored cells has count < min_sup, so every base tuple it covers
// has multiplicity < min_sup and is present here; combinations that are
// stored already carry their true counts, so their residual tuples are
// skipped (no double counting).
//
// Rows are stored column-major: one value slice per dimension, with parallel
// count and optional stored-aggregate arrays, so an aggregate reads only the
// predicate and group-by columns of the rows it keeps (see foldResidual).
// Row order is the lexicographic order of the packed full-width keys (every
// dimension fixed, core.AppendValue codec), strictly ascending. The snapshot's
// residual section is the image of exactly these slices, and a loaded
// residual's slices alias it (see snapshot.go). Immutable after construction.
type Residual struct {
	nd     int
	hasAux bool
	cols   [][]core.Value // nd columns of NumRows values each
	counts []int64
	aux    []float64 // nil when !hasAux
}

// newResidual returns an empty residual with room for rows rows.
func newResidual(nd int, hasAux bool, rows int) *Residual {
	r := &Residual{nd: nd, hasAux: hasAux, cols: make([][]core.Value, nd)}
	if rows > 0 {
		for d := range r.cols {
			r.cols[d] = make([]core.Value, 0, rows)
		}
		r.counts = make([]int64, 0, rows)
		if hasAux {
			r.aux = make([]float64, 0, rows)
		}
	}
	return r
}

// NumRows returns the number of sub-threshold base cells.
func (r *Residual) NumRows() int { return len(r.counts) }

// auxAt returns row i's stored aggregate, 0 on a residual without one.
func (r *Residual) auxAt(i int) float64 {
	if r.aux == nil {
		return 0
	}
	return r.aux[i]
}

// compareRows orders row i of a against row j of b by packed key.
func compareRows(a *Residual, i int, b *Residual, j int) int {
	for d := range a.cols {
		if x, y := a.cols[d][i], b.cols[d][j]; x != y {
			if core.KeyOrder(x) < core.KeyOrder(y) {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Bytes returns the approximate in-memory payload size.
func (r *Residual) Bytes() int64 {
	if r == nil {
		return 0
	}
	return int64(len(r.counts))*int64(r.nd)*core.ValueWidth + 8*int64(len(r.counts)) + 8*int64(len(r.aux))
}

// maxValues raises maxVal[d] to the largest unsigned value code on each
// dimension d.
func (r *Residual) maxValues(maxVal []uint32) {
	for d, col := range r.cols {
		m := maxVal[d]
		for _, v := range col {
			m = max(m, uint32(v))
		}
		maxVal[d] = m
	}
}

// ComputeResidual returns the residual of an iceberg computation at minSup
// over a relation: one row per distinct full-width tuple with multiplicity <
// minSup, counts and (when aux is non-nil) stored measure aggregates of kind.
// The result is engine-independent — it depends only on the relation and the
// threshold — and never nil; minSup <= 1 yields zero rows (nothing is
// pruned).
//
// The tuple IDs are radix-sorted once by packed key, so equal tuples form
// runs; a run shorter than minSup is a row. The sort is stable, so a run's
// measure folds in ascending tuple order.
func ComputeResidual(cols core.Columns, aux []float64, minSup int64, kind core.MeasureKind) *Residual {
	nd := len(cols)
	if nd == 0 || len(cols[0]) == 0 || minSup <= 1 {
		return newResidual(nd, aux != nil, 0)
	}
	n := len(cols[0])
	tids := make([]core.TID, n)
	for i := range tids {
		tids[i] = core.TID(i)
	}
	dims, cards := make([]int, nd), make([]int, nd)
	var ranks [][]core.Value // per dimension, a value's rank in key order; nil where that is value order
	for d, col := range cols {
		dims[d], cards[d] = d, int(slices.Max(col))+1
		if cards[d] > 256 {
			if ranks == nil {
				ranks = make([][]core.Value, nd)
			}
			ranks[d] = keyRanks(cards[d])
		}
	}
	var view func(d int, v core.Value) core.Value
	if ranks != nil {
		view = func(d int, v core.Value) core.Value {
			if r := ranks[d]; r != nil {
				return r[v]
			}
			return v
		}
	}
	psort.LexSort(tids, cols, dims, cards, view)

	// runEnd returns the end of the run of tuples equal to tids[lo].
	runEnd := func(lo int) int {
		hi := lo + 1
		for ; hi < n; hi++ {
			for _, col := range cols {
				if col[tids[hi]] != col[tids[lo]] {
					return hi
				}
			}
		}
		return hi
	}
	rows := 0
	for lo, hi := 0, 0; lo < n; lo = hi {
		if hi = runEnd(lo); int64(hi-lo) < minSup {
			rows++
		}
	}
	res := newResidual(nd, aux != nil, rows)
	for lo, hi := 0, 0; lo < n; lo = hi {
		if hi = runEnd(lo); int64(hi-lo) >= minSup {
			continue
		}
		for d, col := range cols {
			res.cols[d] = append(res.cols[d], col[tids[lo]])
		}
		res.counts = append(res.counts, int64(hi-lo))
		if aux != nil {
			a := core.StoredIdentity(kind)
			for _, t := range tids[lo:hi] {
				a = core.CombineStored(kind, a, aux[t])
			}
			res.aux = append(res.aux, a)
		}
	}
	return res
}

// keyRanks returns, for every value below card, its rank among them in
// packed-key order (core.KeyOrder), which is not value order once a value
// reaches 256.
func keyRanks(card int) []core.Value {
	order := make([]core.Value, card)
	for i := range order {
		order[i] = core.Value(i)
	}
	slices.SortFunc(order, func(a, b core.Value) int { return cmp.Compare(core.KeyOrder(a), core.KeyOrder(b)) })
	ranks := make([]core.Value, card)
	for r, v := range order {
		ranks[v] = core.Value(r)
	}
	return ranks
}

// spliceResidual merges the rows of r (nil for none) whose key is not among
// keys — sorted full-width packed keys — with the sorted rows of fr, every one
// of which must be among keys. The rows between two keys are copied as one
// run, one append per column.
func spliceResidual(nd int, hasAux bool, r, fr *Residual, keys [][]byte) (*Residual, error) {
	n, m := 0, fr.NumRows()
	if r != nil {
		n = r.NumRows()
	}
	out := newResidual(nd, hasAux, n+m)
	i, j := 0, 0
	for _, key := range keys {
		p := i + sort.Search(n-i, func(x int) bool { return r.compareKey(i+x, key) >= 0 })
		out.takeRun(r, i, p)
		i = p
		if i < n && r.compareKey(i, key) == 0 {
			i++ // its multiplicity changed: dropped, and replaced by the fresh row if it is still below minsup
		}
		if j < m && fr.compareKey(j, key) == 0 {
			out.takeRun(fr, j, j+1)
			j++
		}
	}
	out.takeRun(r, i, n)
	if j < m {
		return nil, fmt.Errorf("cubestore: merge: fresh residual row %d matches no delta row", j)
	}
	return out, nil
}

// compareKey orders row i against a full-width packed key.
func (r *Residual) compareKey(i int, key []byte) int {
	for d, col := range r.cols {
		if x, y := core.KeyOrder(col[i]), core.KeyOrder(core.DecodeValue(key[d*core.ValueWidth:])); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// takeRun appends rows [lo, hi) of src to out, one append per column. Growth
// is amortized self-append (into capacity newResidual sized up front where
// the caller knows it).
func (out *Residual) takeRun(src *Residual, lo, hi int) {
	if lo == hi {
		return
	}
	for d := range out.cols {
		out.cols[d] = append(out.cols[d], src.cols[d][lo:hi]...)
	}
	out.counts = append(out.counts, src.counts[lo:hi]...)
	if !out.hasAux {
		return
	}
	if src.aux != nil {
		out.aux = append(out.aux, src.aux[lo:hi]...)
		return
	}
	for ; lo < hi; lo++ {
		out.aux = append(out.aux, 0)
	}
}

// selectivitySample is how many evenly spaced rows selectRows tests a
// predicate on to estimate its selectivity.
const selectivitySample = 256

// selectRows returns, in buf (regrown to hold a full column), the rows
// satisfying every bound predicate of ms (one matcher per dimension),
// ascending. Only bound columns are read: the predicate a sample finds most
// selective scans its whole column into the selection vector, and the others
// filter the survivors.
func (r *Residual) selectRows(ms []matcher, buf []int32) []int32 {
	n := r.NumRows()
	buf = slices.Grow(buf[:0], n)[:n]
	first, fewest := -1, n+1
	step := max(1, n/selectivitySample)
	for d := range ms {
		if ms[d].kind == matchAny {
			continue
		}
		hits := 0
		for i := 0; i < n; i += step {
			if ms[d].match(r.cols[d][i]) {
				hits++
			}
		}
		if hits < fewest {
			first, fewest = d, hits
		}
	}
	if first < 0 {
		for i := range buf {
			buf[i] = int32(i)
		}
		return buf
	}
	sel := ms[first].selectRows(r.cols[first], buf)
	for d := range ms {
		if d != first && ms[d].kind != matchAny {
			sel = ms[d].filterRows(r.cols[d], sel)
		}
	}
	return sel
}

// foldResidual folds the selected rows into groups: a row whose combination
// on the key fields was resolved from stored cells (present in combos) is
// already counted through that combination's closure and is skipped; the rest
// belong to combinations entirely below the iceberg threshold, whose tuples
// are all residual rows, so adding them row by row reconstructs the exact
// aggregates. Only the key fields' columns are read. It returns the number of
// rows folded.
func foldResidual[K aggKey](r *Residual, sel []int32, fields []keyField, gmask K, combos, groups *aggTable[K], agg AuxAgg) int {
	folded := 0
	for _, i := range sel {
		var key K
		for _, f := range fields {
			putField(&key, f, core.KeyOrder(r.cols[f.dim][i]))
		}
		if combos.find(key) != nil {
			continue
		}
		for w := 0; w < len(key); w++ {
			key[w] &= gmask[w]
		}
		groups.fold(key, r.counts[i], r.auxAt(int(i)), agg)
		folded++
	}
	return folded
}

// HasResidual reports whether the store carries the residual summary of its
// iceberg pruning — the condition under which Aggregate answers exactly at
// any threshold (see Residual).
func (s *Store) HasResidual() bool { return s.res != nil }

// ResidualRows returns the number of residual rows (0 when no residual is
// attached — use HasResidual to distinguish "absent" from "empty").
func (s *Store) ResidualRows() int64 {
	if s.res == nil {
		return 0
	}
	return int64(s.res.NumRows())
}
