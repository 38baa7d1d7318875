package startree

import "ccubing/internal/core"

// rootVal marks a tree root; roots carry no dimension value.
const rootVal core.Value = -99

// node is a star-tree node. Sons form a singly-linked list (unsorted; new
// sons are prepended); lastSon caches the most recently touched son, which
// makes the value-run locality of LexSorted feeds O(1) per insertion.
type node struct {
	val     core.Value // dimension value, or core.StarNode for a star node
	count   int64
	aux     float64 // stored measure aggregate (0 without a measure)
	cls     core.Closedness
	child   *node // first son
	sib     *node // next sibling
	lastSon *node
	nsons   int32
}

// arena allocates nodes in slabs. Child trees are created and destroyed
// constantly during cubing, so slabs recycle through a shared pool (owned by
// the runner) instead of churning the garbage collector: release returns a
// dead tree's slabs, and alloc clears each node before handing it out.
type arena struct {
	slab []node
	used [][]node
	pool *[][]node
}

const arenaSlab = 1024

func (a *arena) alloc() *node {
	if len(a.slab) == 0 {
		if a.pool != nil && len(*a.pool) > 0 {
			p := *a.pool
			a.slab = p[len(p)-1]
			*a.pool = p[:len(p)-1]
		} else {
			a.slab = make([]node, arenaSlab)
		}
		a.used = append(a.used, a.slab[:arenaSlab])
	}
	n := &a.slab[0]
	a.slab = a.slab[1:]
	*n = node{} // recycled slabs carry stale nodes
	return n
}

// release returns every slab of this arena to the shared pool. The caller
// guarantees no node of the tree is referenced anymore.
func (a *arena) release() {
	if a.pool == nil {
		return
	}
	*a.pool = append(*a.pool, a.used...)
	a.used = nil
	a.slab = nil
}

// sortKey orders son values: concrete values ascending, the star node last
// (matching the LexSort view used to build base trees, so sorted-order feeds
// resume at the lastSon hint in O(1)).
func sortKey(v core.Value) core.Value {
	if v == core.StarNode {
		return 1 << 30
	}
	return v
}

// findOrAddSon returns the son of p holding value v, creating it in sorted
// position when absent. The second result reports creation. The lastSon hint
// makes ascending access sequences (sorted base-tree builds, per-branch
// child-tree feeds) O(1) amortized.
func (p *node) findOrAddSon(a *arena, v core.Value) (*node, bool) {
	if p.lastSon != nil && p.lastSon.val == v {
		return p.lastSon, false
	}
	key := sortKey(v)
	var prev *node
	start := p.child
	if p.lastSon != nil && sortKey(p.lastSon.val) < key {
		// Everything before lastSon has a smaller key; resume there.
		prev = p.lastSon
		start = p.lastSon.sib
	}
	for s := start; s != nil && sortKey(s.val) <= key; s = s.sib {
		if s.val == v {
			p.lastSon = s
			return s, false
		}
		prev = s
	}
	n := a.alloc()
	n.val = v
	if prev == nil {
		n.sib = p.child
		p.child = n
	} else {
		n.sib = prev.sib
		prev.sib = n
	}
	p.lastSon = n
	p.nsons++
	return n, true
}

// singleNonStarSon reports whether p has exactly one son and it is not a
// star node: the condition under which all of p's tuples share one value on
// the sons' dimension (Lemma 6 and the last-second-level closedness bit).
// A single star son merges at least two distinct sub-min_sup values whenever
// the node is output-eligible, so it never reports true sharing.
func (p *node) singleNonStarSon() bool {
	return p.nsons == 1 && p.child.val != core.StarNode
}
