// Package startree implements Star-Cubing (Xin, Han, Li, Wah; VLDB'03) and
// its closed extension C-Cubing(Star) (paper Sec. 4).
//
// A base star tree is built over the (star-reduced) relation; one depth-first
// traversal of each tree simultaneously aggregates all of its child trees —
// one per node, collapsing the dimension below that node ("multiway
// aggregation", Sec. 4.2) — which are then processed recursively, walking a
// spanning tree of the cuboid lattice. Iceberg (Apriori) pruning skips child
// trees of sub-min_sup nodes; cells are emitted at the last two levels of
// each tree.
//
// C-Cubing(Star) stores the closedness measure (Representative Tuple ID +
// partial Closed Mask) in every node, maintains it through child-tree
// aggregation with the Tree Mask combine rule, and prunes with:
//
//   - Lemma 5: a node whose Closed Mask intersects the Tree Mask (all its
//     tuples share a value on some collapsed dimension) can produce only
//     non-closed cells — skip its outputs and child trees. (The paper's
//     statement reads "C&TM = 0" but its rationale describes C&TM ≠ 0; we
//     implement the rationale.)
//   - Lemma 6: a node with a single (non-star) son spawns only non-closed
//     child-tree cells — skip the spawn.
package startree

import (
	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Engine is Star-Cubing / C-Cubing(Star) (Config.Closed selects which).
// Measures ride the tree aggregation itself: nodes carry the stored aggregate
// and child-tree merges combine it exactly like count.
var Engine = engine.Engine{Name: "CC(Star)", Caps: engine.Capabilities{Closed: true, Iceberg: true, OrderSensitive: true}, Cube: cube}

type runner struct {
	t        *table.Table
	cfg      engine.Config
	out      sink.Sink
	cols     core.Columns
	vals     []core.Value
	slabPool [][]node   // recycled node slabs
	ctFree   []*ctBuild // recycled child-tree builders
}

// emit delivers one cell with the node's stored measure aggregate (0 when no
// measure is active: nodes then never touch aux).
func (r *runner) emit(n *node) {
	r.out.Emit(r.vals, n.count, n.aux)
}

// ctBuild tracks one child tree under simultaneous construction during its
// parent's DFS. Builders and their tree's node slabs are pooled by the
// runner: cubing creates and destroys one child tree per eligible node.
type ctBuild struct {
	tr      tree
	anchorL int         // anchor level in the parent tree
	cursors []*node     // cursor per child-tree depth for the current path
	psms    []core.Mask // star-dims-in-path mask per child-tree depth
}

// spawnCT prepares a (pooled) child-tree builder for anchor n at level l of
// tr, collapsing tr.dims[l].
func (r *runner) spawnCT(tr *tree, l int) *ctBuild {
	var ct *ctBuild
	if k := len(r.ctFree); k > 0 {
		ct = r.ctFree[k-1]
		r.ctFree = r.ctFree[:k-1]
	} else {
		ct = &ctBuild{
			cursors: make([]*node, r.t.NumDims()+1),
			psms:    make([]core.Mask, r.t.NumDims()+1),
		}
		ct.tr.ar.pool = &r.slabPool
	}
	ct.anchorL = l
	ct.tr.dims = tr.dims[l+1:]
	ct.tr.tm = tr.tm.With(tr.dims[l])
	root := ct.tr.ar.alloc()
	root.val = rootVal
	root.cls = core.EmptyClosedness()
	root.aux = core.StoredIdentity(r.cfg.Measure)
	ct.tr.root = root
	return ct
}

// retireCT releases the child tree's nodes and recycles the builder.
func (r *runner) retireCT(ct *ctBuild) {
	ct.tr.ar.release()
	ct.tr.root = nil
	r.ctFree = append(r.ctFree, ct)
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
	base := buildBase(t, cfg.MinSup, cfg.Closed, cfg.NoStarReduction, cfg.Measure, &r.slabPool)
	r.process(base)
	base.ar.release()
	return nil
}

// process runs the DFS of one tree. The caller guarantees r.vals already
// holds the tree's fixed prefix values.
func (r *runner) process(tr *tree) {
	r.dfs(tr, tr.root, 0, nil, false, false)
}

// dfs visits node n at level l of tr (root = level 0; a node at level l has
// a value on tr.dims[l-1]). acts holds the child trees of the current path
// still under construction; stars and prune carry path state (a star node on
// the path; Lemma 5 fired on the path).
func (r *runner) dfs(tr *tree, n *node, l int, acts []*ctBuild, stars, prune bool) {
	m := tr.depth()
	d := -1
	if l >= 1 {
		d = tr.dims[l-1]
		// Feed n into every active child tree of the path.
		for _, ct := range acts {
			depth := l - 1 - ct.anchorL
			if depth == 0 {
				root := ct.tr.root
				root.count += n.count
				if r.cfg.Closed {
					root.cls.Merge(n.cls, ct.tr.tm, r.cols)
				}
				if r.cfg.Measure != core.MeasureNone {
					root.aux = core.CombineStored(r.cfg.Measure, root.aux, n.aux)
				}
				ct.cursors[0] = root
				ct.psms[0] = 0
			} else {
				parent := ct.cursors[depth-1]
				psm := ct.psms[depth-1]
				if n.val == core.StarNode {
					psm = psm.With(ct.tr.dims[depth-1])
				}
				x, created := parent.findOrAddSon(&ct.tr.ar, n.val)
				if created {
					x.count = n.count
					x.cls = n.cls
					x.aux = n.aux
				} else {
					x.count += n.count
					if r.cfg.Closed {
						x.cls.Merge(n.cls, ct.tr.tm|psm, r.cols)
					}
					if r.cfg.Measure != core.MeasureNone {
						x.aux = core.CombineStored(r.cfg.Measure, x.aux, n.aux)
					}
				}
				ct.cursors[depth] = x
				ct.psms[depth] = psm
			}
		}
		r.vals[d] = n.val
		if n.val == core.StarNode {
			stars = true
		}
	}

	if r.cfg.Closed && !r.cfg.DisableLemma5 && n.cls.Mask&tr.tm != 0 {
		prune = true // Lemma 5: everything below is non-closed
	}

	switch {
	case l == m:
		// Leaf: emit the full cell of this tree's cuboid.
		if n.count >= r.cfg.MinSup && !stars &&
			(!r.cfg.Closed || n.cls.Mask&tr.tm == 0) {
			r.emit(n)
		}
	case l == m-1:
		// Last-second level: emit the cell collapsing the leaf dimension.
		// Its closedness bit for that dimension is the single-son test.
		if n.count >= r.cfg.MinSup && !stars && !prune {
			if !r.cfg.Closed ||
				(n.cls.Mask&tr.tm == 0 && !n.singleNonStarSon()) {
				r.emit(n)
			}
		}
		for s := n.child; s != nil; s = s.sib {
			r.dfs(tr, s, l+1, acts, stars, prune)
		}
	default:
		// Internal node: spawn the child tree collapsing tr.dims[l], then
		// walk the sons (feeding it), then process it.
		var ct *ctBuild
		if n.count >= r.cfg.MinSup && !stars && !prune &&
			!(r.cfg.Closed && !r.cfg.DisableLemma6 && n.singleNonStarSon()) {
			ct = r.spawnCT(tr, l)
			acts = append(acts, ct)
		}
		for s := n.child; s != nil; s = s.sib {
			r.dfs(tr, s, l+1, acts, stars, prune)
		}
		if ct != nil {
			r.process(&ct.tr)
			r.retireCT(ct)
		}
	}

	if l >= 1 {
		r.vals[d] = core.Star
	}
}
