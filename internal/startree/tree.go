package startree

import (
	"ccubing/internal/core"
	"ccubing/internal/psort"
	"ccubing/internal/table"
)

// tree is one cuboid tree: a prefix tree over dims (indices into the base
// relation, in tree order) restricted to the tuples of the spawning
// partition, with treeMask recording every dimension collapsed on the
// derivation path from the base tree (paper Sec. 4.3).
type tree struct {
	dims []int
	tm   core.Mask // tree mask
	root *node
	ar   arena
}

// depth returns the number of tree dimensions.
func (tr *tree) depth() int { return len(tr.dims) }

// buildBase constructs the base star tree over all tuples of t: tuples are
// LexSorted (star-reduced values grouped last per dimension) and inserted
// along shared prefixes. Per-level closedness masks are partial — structural
// bits for the path dimensions — except at star nodes, whose merged values
// force representative-value checks (a star node stands for several values,
// see singleNonStarSon). When measure is active, every node additionally aggregates
// the stored measure of its tuples (t.Aux must be set).
func buildBase(t *table.Table, minsup int64, closed bool, noStars bool, measure core.MeasureKind, pool *[][]node) *tree {
	nd := t.NumDims()
	tr := &tree{dims: make([]int, nd)}
	tr.ar.pool = pool
	for d := range tr.dims {
		tr.dims[d] = d
	}
	n := t.NumTuples()

	// Star reduction table: value v on dimension d collapses into the star
	// node iff its global frequency is below min_sup (paper Sec. 2.1.2).
	var starred [][]bool
	if minsup > 1 && !noStars {
		starred = make([][]bool, nd)
		for d := 0; d < nd; d++ {
			f := make([]int64, t.Cards[d])
			for _, v := range t.Cols[d] {
				f[v]++
			}
			flags := make([]bool, t.Cards[d])
			any := false
			for v, c := range f {
				if c > 0 && c < minsup {
					flags[v] = true
					any = true
				}
			}
			if any {
				starred[d] = flags
			}
		}
	}
	view := func(d int, v core.Value) core.Value {
		if starred != nil && starred[d] != nil && starred[d][v] {
			return core.Value(t.Cards[d]) // stars group last
		}
		return v
	}

	tids := make([]core.TID, n)
	for i := range tids {
		tids[i] = core.TID(i)
	}
	psort.LexSort(tids, t.Cols, tr.dims, t.Cards, view)

	// Structural masks per level: bits of dims[0..l-1].
	structMask := make([]core.Mask, nd+1)
	for l := 1; l <= nd; l++ {
		structMask[l] = structMask[l-1].With(tr.dims[l-1])
	}

	root := tr.ar.alloc()
	root.val = rootVal
	root.cls = core.Closedness{Rep: core.NilTID, Mask: 0}
	root.aux = core.StoredIdentity(measure)
	tr.root = root
	hasAux := measure != core.MeasureNone

	path := make([]*node, nd+1)
	path[0] = root
	psm := make([]core.Mask, nd+1) // star-dims-in-path mask per level
	mapped := make([]core.Value, nd)
	prev := make([]core.Value, nd)
	common := 0 // levels of path valid for the previous tuple

	for ti, tid := range tids {
		for l := 0; l < nd; l++ {
			d := tr.dims[l]
			v := t.Cols[d][tid]
			if starred != nil && starred[d] != nil && starred[d][v] {
				mapped[l] = core.StarNode
			} else {
				mapped[l] = v
			}
		}
		share := 0
		if ti > 0 {
			for share < common && mapped[share] == prev[share] {
				share++
			}
		}
		root.count++
		if closed && root.cls.Rep == core.NilTID {
			root.cls.Rep = tid
		}
		if hasAux {
			root.aux = core.CombineStored(measure, root.aux, t.Aux[tid])
		}
		for l := 1; l <= nd; l++ {
			d := tr.dims[l-1]
			if l-1 < share {
				x := path[l]
				x.count++
				if closed {
					x.cls.MergeTuple(tid, psm[l], t.Cols)
				}
				if hasAux {
					x.aux = core.CombineStored(measure, x.aux, t.Aux[tid])
				}
				continue
			}
			x, created := path[l-1].findOrAddSon(&tr.ar, mapped[l-1])
			if !created {
				// Sorted input guarantees divergence creates fresh nodes.
				panic("startree: unsorted base-tree insertion")
			}
			x.count = 1
			if hasAux {
				x.aux = t.Aux[tid]
			}
			psm[l] = psm[l-1]
			if mapped[l-1] == core.StarNode {
				psm[l] = psm[l].With(d)
			}
			if closed {
				x.cls = core.Closedness{Rep: tid, Mask: structMask[l]}
			}
			path[l] = x
		}
		copy(prev, mapped)
		common = nd
	}
	return tr
}
