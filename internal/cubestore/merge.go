// MergePartitions assembles new Store and group values that are immutable
// once the merged store is returned.

package cubestore

import (
	"bytes"
	"fmt"

	"ccubing/internal/core"
)

// This file implements the group-level merge constructor behind incremental
// refresh (internal/refresh): a new store assembled from the cells of an
// existing store whose partitions were untouched by a delta, plus freshly
// recomputed cells for the touched partitions.
//
// The partition argument mirrors the sharded-computation invariant of
// internal/parallel (paper Sec. 6.3): a closed cell fixing the
// partition dimension aggregates tuples of exactly one partition, so its
// count, measure and closedness are unaffected by appends to other
// partitions. Cells with a wildcard on the partition dimension may aggregate
// tuples of any partition, so an append anywhere can change them; they are
// always replaced.

// MergePartitions builds a new store from s by splitting its cells on dim:
//
//   - cells fixing dim to a value for which replaced reports false are
//     retained (copied group-wise, keeping their sorted order — no re-sort);
//   - cells fixing dim to a replaced value, and every cell with a wildcard
//     on dim, are dropped;
//   - the cells accumulated in fresh are added in their place.
//
// fresh is consumed (like Build, it leaves the builder unusable): its cuboid
// groups are sorted and merged in directly, so the replacement cells are
// never materialized one by one. It must match s's dimensionality and
// measure flag, and each of its cells must either leave dim wildcard or fix
// it to a replaced value — otherwise a fresh cell could silently coexist
// with a retained cell of the same partition, breaking the closed cube's
// one-cell-per-group-by invariant; such cells are rejected. Duplicate keys
// (within the fresh cells, or between fresh and retained cells) are also an
// error. The merged store is canonical: its snapshot is byte-identical to
// one built from scratch over the same cell set.
//
// freshRes carries the residual of the replaced partitions' recomputation.
// Residual rows fix every dimension, so they partition cleanly on dim: rows
// of s's residual whose dim value is not replaced are retained, and
// freshRes's rows (which must fix dim to replaced values) take the place of
// the dropped ones. Passing freshRes nil produces a store without a residual
// — callers must do so whenever s lacks one (the retained partitions' pruned
// mass is unknown, so claiming exactness would be dishonest).
func (s *Store) MergePartitions(dim int, replaced func(core.Value) bool, fresh *Builder, freshRes *Residual) (*Store, error) {
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
	for _, g := range s.groups {
		if !g.mask.Has(dim) {
			continue // wildcard on dim: replaced wholesale by fresh cells
		}
		kept := retainRows(g, dim, replaced)
		fg := freshGroups[g.mask]
		delete(freshGroups, g.mask)
		merged, err := mergeGroupPair(kept, fg)
		if err != nil {
			return nil, err
		}
		if merged != nil && merged.rows() > 0 {
			out.groups = append(out.groups, merged)
		}
	}
	for _, fg := range freshGroups {
		if fg.rows() > 0 {
			out.groups = append(out.groups, fg)
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
// must all fix dim to replaced values.
func (s *Store) mergeResidual(dim int, replaced func(core.Value) bool, freshRes *Residual) (*Residual, error) {
	if freshRes.nd != s.nd {
		return nil, fmt.Errorf("cubestore: merge: fresh residual has %d dimensions, store has %d", freshRes.nd, s.nd)
	}
	if v, bad := freshRes.firstFailing(dim, replaced); bad {
		return nil, fmt.Errorf("cubestore: merge: fresh residual row fixes dimension %d to unreplaced value %d", dim, v)
	}
	var kept *Residual
	if s.res != nil {
		kept = s.res.retain(dim, s.hasAux, func(v core.Value) bool { return !replaced(v) })
	}
	return mergeResiduals(s.nd, s.hasAux, kept, freshRes)
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
	if a.aux != nil || b.aux != nil {
		out.aux = make([]float64, 0, n+m)
	}
	take := func(g *group, i int) {
		out.keys = append(out.keys, g.row(i)...)
		out.counts = append(out.counts, g.counts[i])
		if out.aux != nil {
			var v float64
			if g.aux != nil {
				v = g.aux[i]
			}
			out.aux = append(out.aux, v)
		}
	}
	i, j := 0, 0
	for i < n && j < m {
		switch bytes.Compare(a.row(i), b.row(j)) {
		case -1:
			take(a, i)
			i++
		case 1:
			take(b, j)
			j++
		default:
			return nil, fmt.Errorf("cubestore: merge: duplicate cell in cuboid mask %#x", uint64(a.mask))
		}
	}
	for ; i < n; i++ {
		take(a, i)
	}
	for ; j < m; j++ {
		take(b, j)
	}
	return out, nil
}
