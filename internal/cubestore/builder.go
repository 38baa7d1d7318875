// Builder-side mutation of the cubestore structures: after Build (or Open, or
// MergeDelta) returns a Store it is published to concurrent readers and
// never written again. Only this file, snapshot.go, merge.go and residual.go
// write Store and group fields.

package cubestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"ccubing/internal/core"
)

// buildIndex derives the cuboid-lattice index from the sorted group list and
// the per-dimension value bounds from every stored key and residual row;
// called by Build, Open and MergeDelta once groups and res are final.
func (s *Store) buildIndex() {
	s.byDim = make([][]*group, s.nd)
	s.maxVal = make([]uint32, s.nd)
	var rowMax [core.MaxDims]uint32
	for _, g := range s.groups {
		mx := rowMax[:len(g.dims)]
		clear(mx)
		for row := 0; row < len(g.keys); row += g.width {
			for j := range mx {
				mx[j] = max(mx[j], binary.LittleEndian.Uint32(g.keys[row+j*core.ValueWidth:]))
			}
		}
		for j, d := range g.dims {
			s.byDim[d] = append(s.byDim[d], g)
			s.maxVal[d] = max(s.maxVal[d], mx[j])
		}
	}
	if s.res != nil {
		s.res.maxValues(s.maxVal)
	}
}

// Builder accumulates closed cells and freezes them into a Store.
type Builder struct {
	nd     int
	hasAux bool
	groups map[core.Mask]*group
	res    *Residual
}

// NewBuilder returns a builder for an nd-dimensional cube; hasAux reserves a
// complex-measure value per cell.
func NewBuilder(nd int, hasAux bool) *Builder {
	return &Builder{nd: nd, hasAux: hasAux, groups: make(map[core.Mask]*group)}
}

// Add records one closed cell. vals is copied; aux is ignored unless the
// builder was created with hasAux.
func (b *Builder) Add(vals []core.Value, count int64, aux float64) {
	mask := core.AllMask(vals) // wildcard bits
	fixed := core.LowBits(b.nd) &^ mask
	g := b.groups[fixed]
	if g == nil {
		g = &group{mask: fixed}
		g.dims = fixed.Dims(nil)
		g.width = core.ValueWidth * len(g.dims)
		b.groups[fixed] = g
	}
	g.keys = core.AppendValues(g.keys, vals, g.dims)
	g.counts = append(g.counts, count)
	if b.hasAux {
		g.aux = append(g.aux, aux)
	}
}

// BuilderSink adapts a Builder to sink.Sink, counting the cells it forwards.
// It is the terminal sink of Materialize-style builds whose dimension order
// needs no remapping, and of every incremental refresh.
type BuilderSink struct {
	B     *Builder
	Cells int64
}

// Emit implements sink.Sink.
func (s *BuilderSink) Emit(vals []core.Value, count int64, aux float64) {
	s.B.Add(vals, count, aux)
	s.Cells++
}

// SetResidual attaches the residual summary of the iceberg pruning the cells
// were computed with (see Residual); Build transfers it to the store. The
// residual's dimensionality must match the builder's. Passing nil clears it.
func (b *Builder) SetResidual(res *Residual) error {
	if res != nil && res.nd != b.nd {
		return fmt.Errorf("cubestore: residual has %d dimensions, builder has %d", res.nd, b.nd)
	}
	b.res = res
	return nil
}

// Build sorts every cuboid group and returns the immutable store. It errors
// on duplicate cells (a closed cube contains each cell once) and leaves the
// builder unusable afterwards.
func (b *Builder) Build() (*Store, error) {
	s := &Store{
		nd:     b.nd,
		hasAux: b.hasAux,
		groups: make([]*group, 0, len(b.groups)),
		byMask: make(map[core.Mask]*group, len(b.groups)),
		res:    b.res,
	}
	for _, g := range b.groups {
		if err := g.sortRows(); err != nil {
			return nil, err
		}
		s.groups = append(s.groups, g)
		s.byMask[g.mask] = g
		s.cells += int64(g.rows())
	}
	sortGroups(s.groups)
	s.buildIndex()
	b.groups = nil
	return s, nil
}

// ascending reports whether the group's rows are strictly ascending by packed
// key: sorted, and free of duplicates.
func (g *group) ascending() bool {
	for i := 1; i < g.rows(); i++ {
		if bytes.Compare(g.row(i-1), g.row(i)) >= 0 {
			return false
		}
	}
	return true
}

// sortGroups orders a group list into the store's canonical order, masks
// ascending.
func sortGroups(groups []*group) {
	sort.Slice(groups, func(i, j int) bool { return groups[i].mask < groups[j].mask })
}

// sortRows orders the group's rows by packed key and rejects duplicates.
func (g *group) sortRows() error {
	n := g.rows()
	if g.width == 0 {
		if n > 1 {
			return fmt.Errorf("cubestore: duplicate apex cell")
		}
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return bytes.Compare(g.row(idx[a]), g.row(idx[b])) < 0
	})
	keys := make([]byte, 0, len(g.keys))
	counts := make([]int64, 0, n)
	var aux []float64
	if g.aux != nil {
		aux = make([]float64, 0, n)
	}
	for _, i := range idx {
		keys = append(keys, g.row(i)...)
		counts = append(counts, g.counts[i])
		if g.aux != nil {
			aux = append(aux, g.aux[i])
		}
	}
	for i := 1; i < n; i++ {
		if bytes.Equal(keys[(i-1)*g.width:i*g.width], keys[i*g.width:(i+1)*g.width]) {
			return fmt.Errorf("cubestore: duplicate cell in cuboid mask %#x", uint64(g.mask))
		}
	}
	g.keys, g.counts, g.aux = keys, counts, aux
	return nil
}
