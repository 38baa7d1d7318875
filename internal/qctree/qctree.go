// Package qctree implements the QC-tree of Lakshmanan, Pei & Zhao
// (SIGMOD'03): the summary structure the Quotient Cube system materializes.
// The paper's baseline measurements used the QC-tree authors' implementation
// (Sec. 5: "the QC-DFS was provided by the author of [10]"), which builds
// this structure rather than merely listing closed cells — the cost the
// C-Cubing algorithms avoid. This package is that baseline engine: QC-DFS
// plus tree insertion, timed against the cubing engines. Serving queries is
// internal/cubestore's job, not the tree's.
//
// A QC-tree stores every temporary class of the quotient cube: each closed
// (upper-bound) cell contributes the prefix paths of its class, and each
// tree node is annotated with the class measure.
package qctree

import (
	"sort"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// node is one QC-tree node: a (dimension, value) labeled edge from its
// parent, annotated with the count of the class whose path ends here.
type node struct {
	dim   int
	val   core.Value
	count int64
	sons  []*node // sorted by (dim, val)
}

// Tree is a materialized QC-tree; its node count is the baseline's
// structure-size metric.
type Tree struct {
	root  *node
	nodes int64
}

// Nodes returns the number of tree nodes, the structure-size metric.
func (t *Tree) Nodes() int64 { return t.nodes }

// Engine is the baseline variant labeled "QC-Tree" in the experiment harness:
// the closed iceberg cube via QC-DFS while also materializing the QC-tree —
// the full work the original Quotient Cube system performs — forwarding every
// upper-bound cell (with the measure aggregate QC-DFS computed for it) to
// out. Closed mode only.
var Engine = engine.Engine{Name: "QC-Tree", Caps: engine.Capabilities{Closed: true}, Cube: cube}

func cube(tbl *table.Table, cfg engine.Config, out sink.Sink) error {
	ins := &inserter{t: &Tree{root: &node{dim: -1}}, next: out}
	return qcdfs.Engine.Cube(tbl, cfg, ins)
}

// inserter adapts the sink interface to tree insertion.
type inserter struct {
	t    *Tree
	next sink.Sink
}

// Emit inserts one upper-bound cell. Per the QC-tree construction, the
// node path of a class is the sequence of its bound (dim, value) pairs in
// dimension order; shared prefixes are shared in the tree.
func (ins *inserter) Emit(vals []core.Value, count int64, aux float64) {
	ins.t.insert(vals, count)
	ins.next.Emit(vals, count, aux)
}

func (t *Tree) insert(vals []core.Value, count int64) {
	cur := t.root
	if cur.count < count {
		cur.count = count // the root class is the apex upper bound's class
	}
	for d, v := range vals {
		if v == core.Star {
			continue
		}
		cur = cur.findOrAdd(d, v, &t.nodes)
		if cur.count < count {
			cur.count = count
		}
	}
	// Ensure the terminal node carries the exact class count.
	cur.count = count
}

func (n *node) findOrAdd(dim int, val core.Value, nodes *int64) *node {
	i := sort.Search(len(n.sons), func(i int) bool {
		s := n.sons[i]
		return s.dim > dim || (s.dim == dim && s.val >= val)
	})
	if i < len(n.sons) && n.sons[i].dim == dim && n.sons[i].val == val {
		return n.sons[i]
	}
	s := &node{dim: dim, val: val}
	n.sons = append(n.sons, nil)
	copy(n.sons[i+1:], n.sons[i:])
	n.sons[i] = s
	*nodes++
	return s
}
