// Package sink collects or accounts for the cells a cubing engine outputs.
// Engines call Emit with a scratch value slice that is only valid during the
// call; sinks that retain cells must copy.
//
// The complex measure rides in every cell (paper Sec. 6.1: it is aggregated
// in the same pass and by the same mechanism as count): aux is the stored
// aggregate (core.MeasureAgg.Stored) of the run's measure kind, and 0 when
// the run has none.
package sink

import (
	"fmt"
	"sort"

	"ccubing/internal/core"
)

// Sink receives output cells. vals is valid only for the duration of the
// call; count is the cell's count measure and aux its stored complex-measure
// aggregate (0 when no measure was requested).
type Sink interface {
	Emit(vals []core.Value, count int64, aux float64)
}

// Null counts cells and bytes without retaining anything: the "output
// disabled" mode of the paper's overhead experiments (Figs. 16-17), also used
// for the cube-size experiments (Figs. 13-14).
type Null struct {
	Cells int64
	// Bytes accumulates the serialized cube size: one int32 per dimension
	// plus an int64 count per cell, the accounting used for Figs. 13-14.
	Bytes int64
}

// Emit implements Sink.
func (n *Null) Emit(vals []core.Value, count int64, aux float64) {
	n.Cells++
	n.Bytes += int64(4*len(vals)) + 8
}

// MB returns the accumulated size in binary megabytes.
func (n *Null) MB() float64 { return float64(n.Bytes) / (1 << 20) }

// Collector retains every emitted cell (values copied) with its count and
// measure aggregate.
type Collector struct {
	Cells []core.Cell
}

// Emit implements Sink, copying vals.
func (c *Collector) Emit(vals []core.Value, count int64, aux float64) {
	v := make([]core.Value, len(vals))
	copy(v, vals)
	c.Cells = append(c.Cells, core.Cell{Values: v, Count: count, Aux: aux})
}

// Sorted returns the collected cells in canonical order.
func (c *Collector) Sorted() []core.Cell {
	core.SortCells(c.Cells)
	return c.Cells
}

// ByKey indexes the collected cells by Cell.Key. It fails (second result
// false) if two cells share a key, which would mean an engine emitted a
// duplicate.
func (c *Collector) ByKey() (map[string]int64, bool) {
	m := make(map[string]int64, len(c.Cells))
	for _, cell := range c.Cells {
		k := cell.Key()
		if _, dup := m[k]; dup {
			return nil, false
		}
		m[k] = cell.Count
	}
	return m, true
}

// FixedDim forwards only the cells that fix dimension Dim: the filter of
// every partition-wise run (paper Sec. 6.3). Such a cell has all of its
// tuples inside the one partition being cubed, so the count, measure and
// closedness computed there are globally correct; cells with a wildcard on
// Dim come from the final pass over the whole relation instead.
type FixedDim struct {
	Next Sink
	Dim  int
}

// Emit implements Sink.
func (f *FixedDim) Emit(vals []core.Value, count int64, aux float64) {
	if vals[f.Dim] != core.Star {
		f.Next.Emit(vals, count, aux)
	}
}

// Dedup wraps a sink and fails loudly (via the Dup counter) when the same
// cell is emitted twice; tests use it to assert engines never duplicate.
type Dedup struct {
	Next Sink
	Seen map[string]bool
	Dup  int64
}

// Emit implements Sink.
func (d *Dedup) Emit(vals []core.Value, count int64, aux float64) {
	if d.Seen == nil {
		d.Seen = make(map[string]bool)
	}
	k := core.CellKey(vals)
	if d.Seen[k] {
		d.Dup++
	}
	d.Seen[k] = true
	if d.Next != nil {
		d.Next.Emit(vals, count, aux)
	}
}

// FormatCells renders cells one per line in canonical order; a test helper
// that keeps failure output readable.
func FormatCells(cells []core.Cell) string {
	sorted := make([]core.Cell, len(cells))
	copy(sorted, cells)
	core.SortCells(sorted)
	out := ""
	for _, c := range sorted {
		out += c.String() + "\n"
	}
	return out
}

// DiffCells compares two cell sets (order-insensitive) and describes the
// differences, up to limit lines. Empty string means equal.
func DiffCells(got, want []core.Cell, limit int) string {
	gm := map[string]int64{}
	for _, c := range got {
		gm[c.Key()] = c.Count
	}
	wm := map[string]int64{}
	wcell := map[string]core.Cell{}
	for _, c := range want {
		wm[c.Key()] = c.Count
		wcell[c.Key()] = c
	}
	var lines []string
	for _, c := range got {
		if wc, ok := wm[c.Key()]; !ok {
			lines = append(lines, "unexpected "+c.String())
		} else if wc != c.Count {
			lines = append(lines, fmt.Sprintf("count mismatch %s want %d", c.String(), wc))
		}
	}
	for k, c := range wcell {
		if _, ok := gm[k]; !ok {
			lines = append(lines, "missing "+c.String())
		}
	}
	sort.Strings(lines)
	if len(lines) > limit {
		lines = append(lines[:limit], fmt.Sprintf("... and %d more", len(lines)-limit))
	}
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}
