// MergeDelta assembles new Store and group values that are immutable once the
// merged store is returned.

package cubestore

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sort"

	"ccubing/internal/core"
)

// This file implements the merge behind incremental refresh
// (internal/refresh): a new store assembled from the cells of an existing
// store that a delta left unchanged, plus freshly recomputed cells for the
// ones it may have changed. A cell's count, measure and closedness are
// aggregates of its tuple set, which changes exactly when an edited row
// matches the cell on its fixed dimensions; the same holds for a residual row,
// which fixes every dimension.

// MergeDelta builds a new store from s, edited by the rows of delta (nd values
// each, appends and tombstones alike):
//
//   - a cell of s is retained iff no delta row matches it on the cell's fixed
//     dimensions (retained rows are copied in runs, keeping their sorted
//     order);
//   - the cells accumulated in fresh are added in place of the dropped ones;
//   - a residual row of s is retained iff no delta row equals it, and the rows
//     of freshRes are added in place of the dropped ones.
//
// fresh is consumed (like Build, it leaves the builder unusable): its cuboid
// groups are sorted and spliced in directly, so the replacement cells are
// never materialized one by one. It must match s's dimensionality and
// measure flag, and every fresh cell and residual row must take the place of
// a dropped one — be matched by a delta row — otherwise it could silently
// coexist with a retained one of the same tuple set, breaking the closed
// cube's one-cell-per-group-by invariant; such rows are rejected, as are
// duplicate fresh cells. The merged store is canonical: its snapshot is
// byte-identical to one built from scratch over the same cell set.
//
// Passing freshRes nil produces a store without a residual — callers must do
// so whenever s lacks one (the unedited rows' pruned mass is unknown, so
// claiming exactness would be dishonest).
func (s *Store) MergeDelta(delta []core.Value, fresh *Builder, freshRes *Residual) (*Store, error) {
	if fresh.nd != s.nd {
		return nil, fmt.Errorf("cubestore: merge: fresh cells have %d dimensions, store has %d", fresh.nd, s.nd)
	}
	if fresh.hasAux != s.hasAux {
		return nil, fmt.Errorf("cubestore: merge: fresh cells and store disagree on carrying a measure")
	}
	// Sort each fresh cuboid group, the same canonicalization Build performs.
	// A refresh's delta pass emits every cuboid in key order, so its groups
	// need only the check; spliceTouched copies them out either way.
	freshGroups := fresh.groups
	fresh.groups = nil
	for _, g := range freshGroups {
		if g.ascending() {
			continue
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
	merge := func(g, fg *group) error {
		like := g
		if like == nil {
			like = fg
		}
		merged, err := spliceTouched(g, fg, touchedKeys(delta, s.nd, like.dims), s.hasAux)
		if err == nil && merged.rows() > 0 {
			out.groups = append(out.groups, merged)
		}
		return err
	}
	for _, g := range s.groups {
		fg := freshGroups[g.mask]
		delete(freshGroups, g.mask)
		if err := merge(g, fg); err != nil {
			return nil, err
		}
	}
	for _, fg := range freshGroups {
		if err := merge(nil, fg); err != nil {
			return nil, err
		}
	}
	sortGroups(out.groups)
	for _, g := range out.groups {
		out.byMask[g.mask] = g
		out.cells += int64(g.rows())
	}
	if freshRes != nil {
		if freshRes.nd != s.nd {
			return nil, fmt.Errorf("cubestore: merge: fresh residual has %d dimensions, store has %d", freshRes.nd, s.nd)
		}
		res, err := spliceResidual(s.nd, s.hasAux, s.res, freshRes, touchedKeys(delta, s.nd, core.LowBits(s.nd).Dims(nil)))
		if err != nil {
			return nil, err
		}
		out.res = res
	}
	out.buildIndex()
	return out, nil
}

// touchedKeys returns the keys the delta rows (nd values each) have in the
// cuboid fixing dims: each row's values on dims in the packed codec,
// deduplicated — low-dimensional cuboids give many rows few keys — then
// sorted.
func touchedKeys(delta []core.Value, nd int, dims []int) [][]byte {
	n := len(delta) / nd
	w := core.ValueWidth * len(dims)
	flat := make([]byte, 0, n*w) // never regrown: the keys alias it
	keys := make([][]byte, 0, n)
	// Open addressing at a load factor below one half: key index + 1, 0 empty.
	slots := make([]int32, 1<<bits.Len(uint(2*n)))
	mask := uint64(len(slots) - 1)
	for r := 0; r < n; r++ {
		flat = core.AppendValues(flat, delta[r*nd:(r+1)*nd], dims)
		key := flat[len(flat)-w:]
		for i := maphash.Bytes(keySeed, key) & mask; ; i = (i + 1) & mask {
			if slots[i] == 0 {
				keys = append(keys, key)
				slots[i] = int32(len(keys))
				break
			}
			if bytes.Equal(keys[slots[i]-1], key) {
				flat = flat[:len(flat)-w]
				break
			}
		}
	}
	slices.SortFunc(keys, bytes.Compare)
	return keys
}

// keySeed seeds touchedKeys' hash.
var keySeed = maphash.MakeSeed()

// spliceTouched merges one cuboid: the rows of g (nil for none) whose key is
// not among keys, the sorted delta keys, and the sorted fresh rows fg (nil for
// none), every one of which must be among keys. The rows
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
