// MergePartitions assembles new Store and group values that are immutable
// once the merged store is returned.

package cubestore

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"ccubing/internal/core"
)

// This file implements the group-level merge constructor behind incremental
// refresh (internal/refresh): a new store assembled from the cells of an
// existing store that a delta left unchanged, plus freshly recomputed cells
// for the ones it may have changed.
//
// The partition argument mirrors the sharded-computation invariant of
// internal/parallel (paper Sec. 6.3): a closed cell fixing the partition
// dimension aggregates tuples of exactly one partition, so its count, measure
// and closedness are unaffected by edits to other partitions. A cell with a
// wildcard on the partition dimension may aggregate tuples of any partition;
// it is unchanged exactly when no edited row matches it on its fixed
// dimensions, since count, measure and closedness are aggregates of its tuple
// set.

// MergePartitions builds a new store from s by splitting its cells on dim:
//
//   - cells fixing dim to a value for which replaced reports false are
//     retained (copied group-wise, keeping their sorted order — no re-sort);
//   - cells fixing dim to a replaced value are dropped;
//   - a cell with a wildcard on dim is retained iff no row of delta (the
//     edited rows, nd values each) matches it on the cell's fixed dimensions;
//     a nil delta drops every such cell, for a fresh builder that holds the
//     whole recomputed wildcard slice;
//   - the cells accumulated in fresh are added in place of the dropped ones.
//
// fresh is consumed (like Build, it leaves the builder unusable): its cuboid
// groups are sorted and spliced in directly, so the replacement cells are
// never materialized one by one. It must match s's dimensionality and
// measure flag, and each of its cells must take the place of a dropped one —
// fix dim to a replaced value, or leave dim wildcard and be matched by a
// delta row — otherwise a fresh cell could silently coexist with a retained
// cell of the same tuple set, breaking the closed cube's one-cell-per-group-by
// invariant; such cells are rejected. Duplicate keys (within the fresh cells,
// or between fresh and retained cells) are also an error. The merged store is
// canonical: its snapshot is byte-identical to one built from scratch over
// the same cell set.
//
// freshRes carries the residual of the replaced partitions' recomputation.
// Residual rows fix every dimension, so they partition cleanly on dim: rows
// of s's residual whose dim value is not replaced are retained, and
// freshRes's rows (which must fix dim to replaced values) take the place of
// the dropped ones. Passing freshRes nil produces a store without a residual
// — callers must do so whenever s lacks one (the retained partitions' pruned
// mass is unknown, so claiming exactness would be dishonest).
func (s *Store) MergePartitions(dim int, replaced func(core.Value) bool, delta []core.Value, fresh *Builder, freshRes *Residual) (*Store, error) {
	if dim < 0 || dim >= s.nd {
		return nil, fmt.Errorf("cubestore: merge: dimension %d out of range (store has %d)", dim, s.nd)
	}
	if fresh.nd != s.nd {
		return nil, fmt.Errorf("cubestore: merge: fresh cells have %d dimensions, store has %d", fresh.nd, s.nd)
	}
	if fresh.hasAux != s.hasAux {
		return nil, fmt.Errorf("cubestore: merge: fresh cells and store disagree on carrying a measure")
	}
	// Sort each fresh cuboid group, the same canonicalization Build performs.
	freshGroups := fresh.groups
	fresh.groups = nil
	for _, g := range freshGroups {
		if v, bad := g.firstFailing(dim, replaced); bad {
			return nil, fmt.Errorf("cubestore: merge: fresh cell fixes dimension %d to unreplaced value %d", dim, v)
		}
		if err := g.sortRows(); err != nil {
			return nil, fmt.Errorf("cubestore: merge: %w", err)
		}
	}

	out := &Store{
		nd:     s.nd,
		hasAux: s.hasAux,
		byMask: make(map[core.Mask]*group),
	}
	// merge combines one cuboid's old rows (nil when s lacks the cuboid) with
	// its fresh ones (nil when none were recomputed).
	merge := func(g, fg *group) (*group, error) {
		like := g
		if like == nil {
			like = fg
		}
		switch {
		case like.mask.Has(dim):
			var kept *group
			if g != nil {
				kept = retainRows(g, dim, replaced)
			}
			return mergeGroupPair(kept, fg)
		case delta == nil:
			return fg, nil // the whole wildcard slice was recomputed
		default:
			return spliceTouched(g, fg, touchedKeys(delta, s.nd, like.dims), s.hasAux)
		}
	}
	for _, g := range s.groups {
		fg := freshGroups[g.mask]
		delete(freshGroups, g.mask)
		merged, err := merge(g, fg)
		if err != nil {
			return nil, err
		}
		if merged != nil && merged.rows() > 0 {
			out.groups = append(out.groups, merged)
		}
	}
	for _, fg := range freshGroups {
		merged, err := merge(nil, fg)
		if err != nil {
			return nil, err
		}
		if merged.rows() > 0 {
			out.groups = append(out.groups, merged)
		}
	}
	sortGroups(out.groups)
	for _, g := range out.groups {
		out.byMask[g.mask] = g
		out.cells += int64(g.rows())
	}
	if freshRes != nil {
		res, err := s.mergeResidual(dim, replaced, freshRes)
		if err != nil {
			return nil, err
		}
		out.res = res
	}
	out.buildIndex()
	return out, nil
}

// mergeResidual splits s's residual on dim like MergePartitions splits
// cells: retained rows (dim value not replaced) plus freshRes's rows, which
// must all fix dim to replaced values. Each partition is one run of rows, so
// the merge splices runs (see spliceResiduals); that needs dim to be the
// leading dimension of the residual's sort order.
func (s *Store) mergeResidual(dim int, replaced func(core.Value) bool, freshRes *Residual) (*Residual, error) {
	if freshRes.nd != s.nd {
		return nil, fmt.Errorf("cubestore: merge: fresh residual has %d dimensions, store has %d", freshRes.nd, s.nd)
	}
	if dim != 0 {
		return nil, fmt.Errorf("cubestore: merge: a residual splits on dimension 0 only, not %d", dim)
	}
	if v, bad := freshRes.firstFailing(dim, replaced); bad {
		return nil, fmt.Errorf("cubestore: merge: fresh residual row fixes dimension %d to unreplaced value %d", dim, v)
	}
	return spliceResiduals(s.nd, s.hasAux, s.res, func(v core.Value) bool { return !replaced(v) }, freshRes)
}

// touchedKeys returns the keys the delta rows (nd values each) have in the
// cuboid fixing dims: each row's values on dims in the packed codec, sorted
// and deduplicated.
func touchedKeys(delta []core.Value, nd int, dims []int) [][]byte {
	n := len(delta) / nd
	w := core.ValueWidth * len(dims)
	flat := make([]byte, 0, n*w)
	keys := make([][]byte, n)
	for r := range keys {
		flat = core.AppendValues(flat, delta[r*nd:(r+1)*nd], dims)
		keys[r] = flat[r*w : (r+1)*w]
	}
	slices.SortFunc(keys, bytes.Compare)
	return slices.CompactFunc(keys, bytes.Equal)
}

// spliceTouched merges one wildcard cuboid: the rows of g (nil for none)
// whose key is not among keys, the sorted delta keys, and the sorted fresh
// rows fg (nil for none), every one of which must be among keys. The rows
// between two keys are copied as one run.
func spliceTouched(g, fg *group, keys [][]byte, hasAux bool) (*group, error) {
	like := g
	if like == nil {
		like = fg
	}
	var n, m int
	if g != nil {
		n = g.rows()
	}
	if fg != nil {
		m = fg.rows()
	}
	out := &group{mask: like.mask, dims: like.dims, width: like.width}
	out.keys = make([]byte, 0, (n+m)*out.width)
	out.counts = make([]int64, 0, n+m)
	if hasAux {
		out.aux = make([]float64, 0, n+m)
	}
	i, j := 0, 0
	for _, key := range keys {
		p := i + sort.Search(n-i, func(x int) bool { return bytes.Compare(g.row(i+x), key) >= 0 })
		out.take(g, i, p)
		i = p
		if i < n && bytes.Equal(g.row(i), key) {
			i++ // touched: dropped, and replaced by the fresh row if it is still closed
		}
		if j < m && bytes.Equal(fg.row(j), key) {
			out.take(fg, j, j+1)
			j++
		}
	}
	out.take(g, i, n)
	if j < m {
		return nil, fmt.Errorf("cubestore: merge: fresh cell in cuboid mask %#x matches no delta row", uint64(out.mask))
	}
	return out, nil
}

// take appends rows [lo, hi) of src, a group of the same cuboid, to g.
func (g *group) take(src *group, lo, hi int) {
	if lo == hi {
		return
	}
	g.keys = append(g.keys, src.keys[lo*src.width:hi*src.width]...)
	g.counts = append(g.counts, src.counts[lo:hi]...)
	if g.aux != nil {
		g.aux = append(g.aux, src.aux[lo:hi]...)
	}
}

// dimOffset returns the byte offset of dimension dim's value within g's
// packed rows, or -1 when g leaves dim wildcard.
func (g *group) dimOffset(dim int) int {
	for k, d := range g.dims {
		if d == dim {
			return k * core.ValueWidth
		}
	}
	return -1
}

// firstFailing returns the first value a row of g fixes dim to that fails
// ok, if any; a group with a wildcard on dim has none.
func (g *group) firstFailing(dim int, ok func(core.Value) bool) (core.Value, bool) {
	off := g.dimOffset(dim)
	if off < 0 {
		return 0, false
	}
	for i := 0; i < g.rows(); i++ {
		if v := core.DecodeValue(g.row(i)[off:]); !ok(v) {
			return v, true
		}
	}
	return 0, false
}

// retainRows copies the rows of g whose value on dim is not replaced,
// preserving their sorted order. g must fix dim. Returns nil when nothing
// survives.
func retainRows(g *group, dim int, replaced func(core.Value) bool) *group {
	off := g.dimOffset(dim)
	kept := &group{mask: g.mask, dims: g.dims, width: g.width}
	for i := 0; i < g.rows(); i++ {
		row := g.row(i)
		if replaced(core.DecodeValue(row[off:])) {
			continue
		}
		kept.keys = append(kept.keys, row...)
		kept.counts = append(kept.counts, g.counts[i])
		if g.aux != nil {
			kept.aux = append(kept.aux, g.aux[i])
		}
	}
	if kept.rows() == 0 {
		return nil
	}
	return kept
}

// mergeGroupPair linearly merges two sorted groups of the same cuboid into
// one, rejecting duplicate keys. Either side may be nil.
func mergeGroupPair(a, b *group) (*group, error) {
	if a == nil {
		return b, nil
	}
	if b == nil {
		return a, nil
	}
	if a.width == 0 {
		// The apex cuboid holds at most one row; both sides non-empty means a
		// duplicate (retainRows and Builder never emit empty groups).
		return nil, fmt.Errorf("cubestore: merge: duplicate apex cell")
	}
	n, m := a.rows(), b.rows()
	out := &group{mask: a.mask, dims: a.dims, width: a.width}
	out.keys = make([]byte, 0, len(a.keys)+len(b.keys))
	out.counts = make([]int64, 0, n+m)
	if a.aux != nil {
		out.aux = make([]float64, 0, n+m)
	}
	i, j := 0, 0
	for i < n && j < m {
		switch bytes.Compare(a.row(i), b.row(j)) {
		case -1:
			out.take(a, i, i+1)
			i++
		case 1:
			out.take(b, j, j+1)
			j++
		default:
			return nil, fmt.Errorf("cubestore: merge: duplicate cell in cuboid mask %#x", uint64(a.mask))
		}
	}
	out.take(a, i, n)
	out.take(b, j, m)
	return out, nil
}
