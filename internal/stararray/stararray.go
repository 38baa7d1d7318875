// Package stararray implements the StarArray extension of Star-Cubing and
// its closed version C-Cubing(StarArray) (paper Sec. 4).
//
// A StarArray is the pair <A, T>: a partial cuboid tree whose sub-min_sup
// branches are truncated into pools of tuple IDs sorted by the remaining
// dimensions (Sec. 4.1). Child trees are built by "multiway traversal"
// (Sec. 4.2): for each child tree, the branches under the anchor are
// traversed simultaneously — a k-way merge synchronized on node values —
// so every child-tree node is created with its final aggregate known, and
// the child tree is traversed exactly once during construction. Pools merge
// by order-preserving multiway merge on the remaining dimensions. With
// min_sup 1 no pools arise and the structure degenerates to a star tree, as
// the paper notes.
//
// C-Cubing(StarArray) carries the closedness measure through the merges
// (exact masks at pool boundaries, partial masks in the tree) and applies
// the Lemma 5 (mask) and Lemma 6 (single-son) prunings.
package stararray

import (
	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Engine is StarArray / C-Cubing(StarArray) (Config.Closed selects which).
// Measures ride the multiway traversal: merged nodes and pool folds carry the
// stored aggregate exactly like count.
var Engine = engine.Engine{Name: "CC(StarArray)", Caps: engine.Capabilities{Closed: true, Iceberg: true, OrderSensitive: true}, Cube: cube}

type runner struct {
	t        *table.Table
	cfg      engine.Config
	out      sink.Sink
	cols     core.Columns
	vals     []core.Value
	slabPool [][]saNode
}

// emit delivers one cell with the node's stored measure aggregate (0 when no
// measure is active: nodes then never touch aux).
func (r *runner) emit(n *saNode) {
	r.out.Emit(r.vals, n.count, n.aux)
}

// cube computes the (closed) iceberg cube of t and emits cells into out.
func cube(t *table.Table, cfg engine.Config, out sink.Sink) error {
	r := &runner{
		t:    t,
		cfg:  cfg,
		out:  out,
		cols: t.Cols,
		vals: make([]core.Value, t.NumDims()),
	}
	for d := range r.vals {
		r.vals[d] = core.Star
	}
	base := buildBase(t, cfg.MinSup, cfg.Closed, cfg.Measure, &r.slabPool)
	r.process(base)
	base.ar.release()
	return nil
}

func (r *runner) process(tr *saTree) { r.dfs(tr, tr.root, 0, false) }

// dfs walks tree tr emitting cells at the last two levels and spawning one
// child tree per eligible internal node (multiway traversal builds it in one
// pass). prune carries Lemma 5 state down the path.
func (r *runner) dfs(tr *saTree, n *saNode, l int, prune bool) {
	m := tr.depth()
	d := -1
	if l >= 1 {
		d = tr.dims[l-1]
		r.vals[d] = n.val
	}
	if r.cfg.Closed && !r.cfg.DisableLemma5 && n.cls.Mask&tr.tm != 0 {
		prune = true
	}
	switch {
	case l == m:
		if n.count >= r.cfg.MinSup &&
			(!r.cfg.Closed || n.cls.Mask&tr.tm == 0) {
			r.emit(n)
		}
	case n.isPool:
		// Truncated branch: count < min_sup, nothing below can be output.
	case l == m-1:
		if n.count >= r.cfg.MinSup && !prune {
			if !r.cfg.Closed ||
				(n.cls.Mask&tr.tm == 0 && n.nsons != 1) {
				r.emit(n)
			}
		}
		for s := n.child; s != nil; s = s.sib {
			r.dfs(tr, s, l+1, prune)
		}
	default:
		if n.count >= r.cfg.MinSup && !prune &&
			!(r.cfg.Closed && !r.cfg.DisableLemma6 && n.nsons == 1) {
			ct := r.buildCT(tr, n, l)
			r.process(ct)
			ct.ar.release()
		}
		for s := n.child; s != nil; s = s.sib {
			r.dfs(tr, s, l+1, prune)
		}
	}
	if l >= 1 {
		r.vals[d] = core.Star
	}
}

// cursor points at a subtree or pool segment whose children are merged at
// the current depth: exactly one of n (an internal node whose sons are the
// children) or pool (TIDs sorted by tr.dims[d:], whose value runs on
// tr.dims[d] are the children) is set.
type cursor struct {
	n    *saNode
	pool []core.TID
}

// buildCT builds the child tree of anchor n (at level l of tr) by collapsing
// tr.dims[l]: the anchor's son subtrees are merged in one synchronized pass.
func (r *runner) buildCT(tr *saTree, n *saNode, l int) *saTree {
	sub := &saTree{dims: tr.dims[l+1:], tm: tr.tm.With(tr.dims[l])}
	sub.ar.pool = &r.slabPool
	root := sub.ar.alloc()
	root.val = rootVal
	root.count = n.count
	root.aux = n.aux
	if r.cfg.Closed {
		root.cls = core.EmptyClosedness()
		for s := n.child; s != nil; s = s.sib {
			root.cls.Merge(s.cls, sub.tm, r.cols)
		}
	}
	curs := make([]cursor, 0, n.nsons)
	for s := n.child; s != nil; s = s.sib {
		curs = append(curs, asCursor(s))
	}
	root.child, root.nsons = r.mergeChildren(sub, curs, 0)
	sub.root = root
	return sub
}

func asCursor(s *saNode) cursor {
	if s.isPool {
		return cursor{pool: s.pool}
	}
	return cursor{n: s}
}

// member is one source of a value group during a merge step: either a node
// (internal or pool leaf) or a raw pool run.
type member struct {
	node *saNode
	run  []core.TID
}

func (mb member) count() int64 {
	if mb.node != nil {
		return mb.node.count
	}
	return int64(len(mb.run))
}

// aux returns the member's stored measure aggregate: the node's own, or the
// fold over a raw pool run.
func (mb member) aux(kind core.MeasureKind, auxIn []float64) float64 {
	if mb.node != nil {
		return mb.node.aux
	}
	return core.FoldStored(kind, auxIn, mb.run)
}

func (mb member) closedness(cols core.Columns) core.Closedness {
	if mb.node != nil {
		return mb.node.cls
	}
	return core.ExactClosedness(mb.run, cols)
}

func (mb member) asCursor() cursor {
	if mb.node != nil {
		return asCursor(mb.node)
	}
	return cursor{pool: mb.run}
}

// stream iterates the children of one cursor during a merge step.
type stream struct {
	c    cursor
	next *saNode // next son (node cursors)
	pos  int     // next pool position (pool cursors)
}

func (s *stream) head(col []core.Value) (core.Value, bool) {
	if s.c.n != nil {
		if s.next == nil {
			return 0, false
		}
		return s.next.val, true
	}
	if s.pos >= len(s.c.pool) {
		return 0, false
	}
	return col[s.c.pool[s.pos]], true
}

func (s *stream) take(col []core.Value) member {
	if s.c.n != nil {
		mb := member{node: s.next}
		s.next = s.next.sib
		return mb
	}
	v := col[s.c.pool[s.pos]]
	end := s.pos + 1
	for end < len(s.c.pool) && col[s.c.pool[end]] == v {
		end++
	}
	mb := member{run: s.c.pool[s.pos:end]}
	s.pos = end
	return mb
}

// streamHeap is a min-heap of streams keyed by head value, so a merge step
// over k streams costs O(log k) per advanced stream rather than O(k) per
// produced group.
type streamHeap struct {
	s    []*stream
	keys []core.Value
}

func (h *streamHeap) push(st *stream, key core.Value) {
	h.s = append(h.s, st)
	h.keys = append(h.keys, key)
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.keys[p] <= h.keys[i] {
			break
		}
		h.s[p], h.s[i] = h.s[i], h.s[p]
		h.keys[p], h.keys[i] = h.keys[i], h.keys[p]
		i = p
	}
}

func (h *streamHeap) pop() *stream {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0], h.keys[0] = h.s[last], h.keys[last]
	h.s, h.keys = h.s[:last], h.keys[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < len(h.s) && h.keys[l] < h.keys[small] {
			small = l
		}
		if rr < len(h.s) && h.keys[rr] < h.keys[small] {
			small = rr
		}
		if small == i {
			return top
		}
		h.s[i], h.s[small] = h.s[small], h.s[i]
		h.keys[i], h.keys[small] = h.keys[small], h.keys[i]
		i = small
	}
}

// mergeChildren produces the merged, aggregated children on tr.dims[d] of
// the given cursors (nodes at level d whose sons carry values on tr.dims[d],
// or pools sorted by tr.dims[d:]). Children come out as a sorted son chain.
func (r *runner) mergeChildren(tr *saTree, curs []cursor, d int) (*saNode, int32) {
	col := r.cols[tr.dims[d]]
	var h streamHeap
	streams := make([]stream, len(curs))
	for i := range curs {
		streams[i] = stream{c: curs[i], next: curs[i].n.childOrNil()}
		if v, ok := streams[i].head(col); ok {
			h.push(&streams[i], v)
		}
	}
	var first, tail *saNode
	var nsons int32
	var members []member
	for len(h.s) > 0 {
		vmin := h.keys[0]
		members = members[:0]
		var cnt int64
		aux := core.StoredIdentity(r.cfg.Measure)
		for len(h.s) > 0 && h.keys[0] == vmin {
			st := h.pop()
			mb := st.take(col)
			members = append(members, mb)
			cnt += mb.count()
			if r.cfg.Measure != core.MeasureNone {
				aux = core.CombineStored(r.cfg.Measure, aux, mb.aux(r.cfg.Measure, r.t.Aux))
			}
			if v, ok := st.head(col); ok {
				h.push(st, v)
			}
		}
		x := r.buildMerged(tr, vmin, cnt, aux, members, d)
		if tail == nil {
			first = x
		} else {
			tail.sib = x
		}
		tail = x
		nsons++
	}
	return first, nsons
}

// childOrNil tolerates pool cursors (whose n is nil).
func (n *saNode) childOrNil() *saNode {
	if n == nil {
		return nil
	}
	return n.child
}

// buildMerged assembles the merged child node for one value group.
func (r *runner) buildMerged(tr *saTree, v core.Value, cnt int64, aux float64, members []member, d int) *saNode {
	m := tr.depth()
	x := tr.ar.alloc()
	x.val = v
	x.count = cnt
	x.aux = aux
	switch {
	case d+1 == m: // full-depth leaf
		if r.cfg.Closed {
			x.cls = r.fold(members, tr.tm)
		}
	case cnt < r.cfg.MinSup: // truncate into a pool
		x.isPool = true
		x.pool = r.gather(tr, members, d+1)
		if r.cfg.Closed {
			// Every member is itself a pool or run (its count is below
			// min_sup too), so all masks are exact and a full-mask fold
			// keeps the pool's measure exact.
			x.cls = r.fold(members, ^core.Mask(0))
		}
	default: // internal
		if r.cfg.Closed {
			x.cls = r.fold(members, tr.tm)
		}
		subCurs := make([]cursor, len(members))
		for i, mb := range members {
			subCurs[i] = mb.asCursor()
		}
		x.child, x.nsons = r.mergeChildren(tr, subCurs, d+1)
	}
	return x
}

// fold combines the members' closedness measures under the given check mask.
func (r *runner) fold(members []member, check core.Mask) core.Closedness {
	c := core.EmptyClosedness()
	for _, mb := range members {
		c.Merge(mb.closedness(r.cols), check, r.cols)
	}
	return c
}

// gather merges the members' tuple pools into one pool sorted by
// tr.dims[d:] (the multiway merge sort of Sec. 4.2). All members are pools
// or runs already sorted by those dimensions; a single member is shared
// without copying.
func (r *runner) gather(tr *saTree, members []member, d int) []core.TID {
	pools := make([][]core.TID, 0, len(members))
	for _, mb := range members {
		p := mb.run
		if mb.node != nil {
			p = mb.node.pool
		}
		pools = append(pools, p)
	}
	if len(pools) == 1 {
		return pools[0]
	}
	dims := tr.dims[d:]
	less := func(a, b core.TID) bool {
		for _, dd := range dims {
			va, vb := r.cols[dd][a], r.cols[dd][b]
			if va != vb {
				return va < vb
			}
		}
		return a < b
	}
	// Balanced pairwise merging: O(total · log k) comparisons.
	for len(pools) > 1 {
		merged := make([][]core.TID, 0, (len(pools)+1)/2)
		for i := 0; i+1 < len(pools); i += 2 {
			a, b := pools[i], pools[i+1]
			out := make([]core.TID, 0, len(a)+len(b))
			for len(a) > 0 && len(b) > 0 {
				if less(b[0], a[0]) {
					out = append(out, b[0])
					b = b[1:]
				} else {
					out = append(out, a[0])
					a = a[1:]
				}
			}
			out = append(out, a...)
			out = append(out, b...)
			merged = append(merged, out)
		}
		if len(pools)%2 == 1 {
			merged = append(merged, pools[len(pools)-1])
		}
		pools = merged
	}
	return pools[0]
}
