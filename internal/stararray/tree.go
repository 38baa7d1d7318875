package stararray

import (
	"ccubing/internal/core"
	"ccubing/internal/psort"
	"ccubing/internal/table"
)

// rootVal marks a tree root; roots carry no dimension value.
const rootVal core.Value = -99

// saNode is a StarArray node. A node is exactly one of:
//
//   - internal: count >= min_sup, sons materialized (first-child/next-sibling
//     chain, sorted ascending by value);
//   - pool leaf: count < min_sup, subtree truncated into pool — the tuple IDs
//     of the node, sorted by the remaining dimensions (paper Sec. 4.1);
//   - full-depth leaf: no dimensions remain below.
//
// Pool leaves carry an exact closedness measure (full mask over all base
// dimensions, computed at pool creation); internal nodes carry the partial
// per-level measure of Sec. 4.3.
type saNode struct {
	val    core.Value
	count  int64
	aux    float64 // stored measure aggregate (0 without a measure)
	cls    core.Closedness
	child  *saNode
	sib    *saNode
	nsons  int32
	isPool bool
	pool   []core.TID
}

// sonSlice materializes the son chain; test helper.
func (n *saNode) sonSlice() []*saNode {
	var out []*saNode
	for s := n.child; s != nil; s = s.sib {
		out = append(out, s)
	}
	return out
}

// arena allocates nodes in recycled slabs (see startree's arena for the
// rationale: child trees are created and destroyed per anchor node, and the
// garbage collector should not pay for that).
type arena struct {
	slab []saNode
	used [][]saNode
	pool *[][]saNode
}

const arenaSlab = 1024

func (a *arena) alloc() *saNode {
	if len(a.slab) == 0 {
		if a.pool != nil && len(*a.pool) > 0 {
			p := *a.pool
			a.slab = p[len(p)-1]
			*a.pool = p[:len(p)-1]
		} else {
			a.slab = make([]saNode, arenaSlab)
		}
		a.used = append(a.used, a.slab[:arenaSlab])
	}
	n := &a.slab[0]
	a.slab = a.slab[1:]
	*n = saNode{}
	return n
}

func (a *arena) release() {
	if a.pool == nil {
		return
	}
	*a.pool = append(*a.pool, a.used...)
	a.used = nil
	a.slab = nil
}

// saTree is one cuboid tree of the StarArray computation: the pair <A, T> of
// the paper, with A distributed over the pool slices of the truncated leaves.
type saTree struct {
	dims []int
	tm   core.Mask // tree mask: dimensions collapsed on the derivation path
	root *saNode
	ar   arena
}

func (tr *saTree) depth() int { return len(tr.dims) }

// buildBase constructs the base StarArray over all tuples: tuples are
// LexSorted over every dimension, so each pool leaf references a subrange of
// the one sorted TID array with no copying, already ordered by its remaining
// dimensions.
// buildBase constructs the base StarArray; when measure is active every node
// (including pool leaves) carries the stored measure aggregate of its tuples.
func buildBase(t *table.Table, minsup int64, closed bool, measure core.MeasureKind, pool *[][]saNode) *saTree {
	nd := t.NumDims()
	tr := &saTree{dims: make([]int, nd)}
	tr.ar.pool = pool
	for d := range tr.dims {
		tr.dims[d] = d
	}
	n := t.NumTuples()
	tids := make([]core.TID, n)
	for i := range tids {
		tids[i] = core.TID(i)
	}
	psort.LexSort(tids, t.Cols, tr.dims, t.Cards, nil)

	structMask := make([]core.Mask, nd+1)
	for l := 1; l <= nd; l++ {
		structMask[l] = structMask[l-1].With(tr.dims[l-1])
	}

	b := &baseBuilder{
		t: t, tr: tr, tids: tids, minsup: minsup,
		closed: closed, measure: measure, structMask: structMask,
	}
	tr.root = b.build(0, n, 0, rootVal)
	return tr
}

type baseBuilder struct {
	t          *table.Table
	tr         *saTree
	tids       []core.TID
	minsup     int64
	closed     bool
	measure    core.MeasureKind
	structMask []core.Mask
}

// build creates the node covering the sorted TID range [lo,hi) at level l
// (values fixed on dims[0..l-1], the node's own value being val).
func (b *baseBuilder) build(lo, hi, l int, val core.Value) *saNode {
	x := b.tr.ar.alloc()
	x.val = val
	x.count = int64(hi - lo)
	x.aux = core.FoldStored(b.measure, b.t.Aux, b.tids[lo:hi])
	m := b.tr.depth()
	switch {
	case l == m: // full-depth leaf: a group of identical tuples
		if b.closed {
			x.cls = core.Closedness{Rep: minTID(b.tids[lo:hi]), Mask: ^core.Mask(0)}
		}
	case x.count < b.minsup: // truncate: pool leaf
		x.isPool = true
		x.pool = b.tids[lo:hi]
		if b.closed {
			x.cls = core.ExactClosednessRange(b.tids, lo, hi, b.t.Cols)
		}
	default: // internal: split the range into value runs on dims[l]
		col := b.t.Cols[b.tr.dims[l]]
		var tail *saNode
		for rlo := lo; rlo < hi; {
			v := col[b.tids[rlo]]
			rhi := rlo + 1
			for rhi < hi && col[b.tids[rhi]] == v {
				rhi++
			}
			son := b.build(rlo, rhi, l+1, v)
			if tail == nil {
				x.child = son
			} else {
				tail.sib = son
			}
			tail = son
			x.nsons++
			rlo = rhi
		}
		if b.closed {
			x.cls = core.Closedness{Rep: core.NilTID, Mask: b.structMask[l]}
			for s := x.child; s != nil; s = s.sib {
				if x.cls.Rep == core.NilTID || s.cls.Rep < x.cls.Rep {
					x.cls.Rep = s.cls.Rep
				}
			}
		}
	}
	return x
}

func minTID(tids []core.TID) core.TID {
	m := tids[0]
	for _, t := range tids[1:] {
		if t < m {
			m = t
		}
	}
	return m
}
