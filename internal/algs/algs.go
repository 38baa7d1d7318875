// Package algs is the one list of the cubing engines. The facade's Algorithm
// constants index Table — Algorithm.String, ParseAlgorithm, engine
// resolution and the snapshot loader's range check all read it — and the
// commands derive their -alg help from it, so an engine is named in exactly
// one place.
package algs

import (
	"slices"
	"strings"

	"ccubing/internal/buc"
	"ccubing/internal/engine"
	"ccubing/internal/mmcubing"
	"ccubing/internal/obcheck"
	"ccubing/internal/qcdfs"
	"ccubing/internal/qctree"
	"ccubing/internal/stararray"
	"ccubing/internal/startree"
)

// Row is one algorithm.
type Row struct {
	// Aliases are the command-line names accepted besides Name; the first is
	// the one help texts print.
	Aliases []string
	// Engine is nil for the automatic choice, which the advisor resolves to
	// one of the other rows.
	Engine *engine.Engine
}

// Table has one row per ccubing.Algorithm constant, at the constant's value.
// Cube snapshots store that value: append rows, never reorder them.
var Table = [...]Row{
	{[]string{"auto"}, nil},
	{[]string{"mm", "MM", "cc-mm"}, &mmcubing.Engine},
	{[]string{"star", "Star", "cc-star"}, &startree.Engine},
	{[]string{"stararray", "StarArray", "cc-stararray"}, &stararray.Engine},
	{[]string{"buc"}, &buc.Engine},
	{[]string{"qcdfs", "qc-dfs"}, &qcdfs.Engine},
	{[]string{"qctree", "qc-tree"}, &qctree.Engine},
	{[]string{"obbuc", "ob-buc"}, &obcheck.Engine},
}

// Name is the algorithm's name as in the paper's figures.
func (r Row) Name() string {
	if r.Engine == nil {
		return "Auto"
	}
	return r.Engine.Name
}

// Parse resolves a command-line name — an alias or the paper's name — to its
// index in Table.
func Parse(s string) (int, bool) {
	i := slices.IndexFunc(Table[:], func(r Row) bool { return s == r.Name() || slices.Contains(r.Aliases, s) })
	return i, i >= 0
}

// Usage lists the command-line names for a -alg help text: every row, or
// with closedOnly the rows that can compute a closed cube (what serving
// materializes).
func Usage(closedOnly bool) string {
	var names []string
	for _, r := range Table {
		if !closedOnly || r.Engine == nil || r.Engine.Caps.Closed {
			names = append(names, r.Aliases[0])
		}
	}
	return strings.Join(names, "|")
}
