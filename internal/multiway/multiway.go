// Package multiway implements array-based simultaneous aggregation in the
// style of Zhao, Deshpande & Naughton (SIGMOD'97): the dense-subspace engine
// MM-Cubing runs inside (paper Sec. 2.1.3, 3.3).
//
// A Space is a small multidimensional array over the dense values of a few
// dimensions, with one extra "other" bucket per dimension for every value
// outside the dense set. The base cuboid array is filled from tuples; every
// coarser cuboid is computed from its designated parent (the parent reached
// by re-adding the cheapest missing dimension) by summing out one dimension,
// so each array cell is touched a bounded number of times. Count and, when
// requested, the closedness measure (Representative Tuple ID + Closed Mask)
// aggregate identically.
//
// The first dimension of a cuboid is innermost, so summing out member m reads
// the parent as [outer][size of m][inner] and adds each contiguous inner run
// into child row outer: the child starts as a copy of the parent's first run
// and the others are added to it in parent order, which is the order a
// per-cell walk would add them in.
//
// The arrays live in an Arena, one set per lattice level. The walk is depth
// first, so at most one cuboid per level is live at a time, and every space
// built on one Arena reuses the arrays of the spaces before it. An Arena is
// owned by one engine run and never shared.
package multiway

import (
	"fmt"

	"ccubing/internal/core"
)

// Dim describes one array dimension of a dense space.
type Dim struct {
	// D is the dimension's index in the base relation.
	D int
	// Vals lists the dense values, ascending; array coordinate i stands for
	// Vals[i] and coordinate len(Vals) is the "other" bucket.
	Vals []core.Value
}

// Arena holds the arrays of the spaces one engine run builds: per lattice
// level (the number of member dimensions) one cuboid's counts, closedness,
// stored measure and member list, plus the space's own scratch. A space
// built on an Arena is valid until the next NewSpace on it. An Arena is not
// safe for concurrent use.
type Arena struct {
	space  Space
	levels []level
}

// level is the cuboid of one lattice level currently being walked.
type level struct {
	members []int // positions into Space.dims, ascending
	mask    uint64
	counts  []int64
	cls     []core.Closedness
	aux     []float64
}

// Space is a dense aggregation space. Build one with NewSpace, fill it with
// Add, then walk the cuboid lattice with Process.
type Space struct {
	a       *Arena
	base    *level // the base cuboid, a.levels[len(dims)]
	dims    []Dim
	sizes   []int    // len(Vals)+1 per dim
	strides []int    // of the base cuboid: the first dim is innermost
	before  []uint64 // per dim, the dims that order strictly before it
	total   int

	closed bool
	cols   core.Columns
	check  core.Mask

	kind  core.MeasureKind
	auxIn []float64 // per-tuple measure input; nil when kind is MeasureNone

	// emitCuboid's scratch.
	mdims   []Dim
	coords  []int
	dimVals []core.Value
}

// grow returns s resized to n, reallocated only when its capacity is short.
// The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewSpace builds a dense space over the given dimensions in a's arrays (a
// fresh Arena when a is nil). The dims' Vals must be sorted ascending
// (coordinates are resolved by binary search, so construction cost is
// independent of the relation's cardinalities); cards is used for validation
// only. There are at most core.MaxDims dims, and dims[0] is the innermost
// array dimension. When closed is true the space also aggregates closedness
// measures, using cols for representative-value comparisons. The product of
// (len(Vals)+1) must stay within maxCells. SetMeasure optionally attaches a
// complex measure before the first Add.
func NewSpace(a *Arena, dims []Dim, cards []int, closed bool, cols core.Columns, maxCells int) (*Space, error) {
	if a == nil {
		a = new(Arena)
	}
	s := &a.space
	*s = Space{
		a: a, dims: dims, closed: closed, cols: cols, check: ^core.Mask(0),
		sizes: s.sizes[:0], strides: s.strides[:0], before: s.before[:0],
		mdims: s.mdims, coords: s.coords, dimVals: s.dimVals,
	}
	total := 1
	for _, dm := range dims {
		if len(dm.Vals) == 0 {
			return nil, fmt.Errorf("multiway: dimension %d has no dense values", dm.D)
		}
		for i := 1; i < len(dm.Vals); i++ {
			if dm.Vals[i-1] >= dm.Vals[i] {
				return nil, fmt.Errorf("multiway: dimension %d dense values not sorted", dm.D)
			}
		}
		if last := dm.Vals[len(dm.Vals)-1]; int(last) >= cards[dm.D] {
			return nil, fmt.Errorf("multiway: dimension %d dense value %d outside cardinality %d", dm.D, last, cards[dm.D])
		}
		size := len(dm.Vals) + 1
		if total > maxCells/size {
			return nil, fmt.Errorf("multiway: space exceeds %d cells", maxCells)
		}
		s.strides = append(s.strides, total)
		total *= size
		s.sizes = append(s.sizes, size)
	}
	s.total = total
	for j, sj := range s.sizes {
		var b uint64
		for o, so := range s.sizes {
			if so < sj || (so == sj && o < j) {
				b |= 1 << o
			}
		}
		s.before = append(s.before, b)
	}

	k := len(dims)
	for len(a.levels) <= k {
		a.levels = append(a.levels, level{})
	}
	base := &a.levels[k]
	s.base = base
	base.members = base.members[:0]
	for i := range dims {
		base.members = append(base.members, i)
	}
	base.mask = 1<<k - 1
	base.counts = grow(base.counts, total)
	clear(base.counts)
	if closed {
		base.cls = grow(base.cls, total)
		for i := range base.cls {
			base.cls[i] = core.EmptyClosedness()
		}
	}
	return s, nil
}

// SetMeasure attaches a per-tuple measure input whose stored aggregate
// (core.MeasureAgg.Stored semantics: sum for sum/avg, extremum for min/max)
// is computed per array cell alongside count and handed to Emit. Must be
// called before the first Add.
func (s *Space) SetMeasure(kind core.MeasureKind, auxIn []float64) {
	if kind == core.MeasureNone {
		return
	}
	s.kind, s.auxIn = kind, auxIn
	base := s.base
	base.aux = grow(base.aux, s.total)
	id := core.StoredIdentity(kind)
	for i := range base.aux {
		base.aux[i] = id
	}
}

// coord resolves a value to its array coordinate on dimension position i:
// the dense index, or the "other" bucket len(Vals).
func (s *Space) coord(i int, v core.Value) int {
	vals := s.dims[i].Vals
	lo, hi := 0, len(vals)
	for lo < hi {
		mid := (lo + hi) / 2
		if vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(vals) && vals[lo] == v {
		return lo
	}
	return len(vals) // other
}

// Add aggregates one tuple into the base cuboid array.
func (s *Space) Add(tid core.TID) {
	idx := 0
	for i, dm := range s.dims {
		idx += s.coord(i, s.cols[dm.D][tid]) * s.strides[i]
	}
	base := s.base
	base.counts[idx]++
	if s.closed {
		base.cls[idx].MergeTuple(tid, s.check, s.cols)
	}
	if s.auxIn != nil {
		base.aux[idx] = core.CombineStored(s.kind, base.aux[idx], s.auxIn[tid])
	}
}

// Cells returns the number of cells of the base cuboid array.
func (s *Space) Cells() int { return s.total }

// Emit is called by Process for every array cell whose coordinates are all
// dense (no "other" bucket): dimVals pairs each Dim.D in the cuboid's
// member set with its concrete value. members and dimVals are reused between
// calls. cls is the zero Closedness unless the space aggregates closedness;
// aux is the cell's stored measure aggregate (0 unless SetMeasure was
// called).
type Emit func(members []Dim, dimVals []core.Value, count int64, cls core.Closedness, aux float64)

// Process walks the cuboid lattice: it emits the base cuboid and every
// sub-cuboid of the space, computing each from its designated parent by
// summing out one dimension. Cells are emitted at most once per cuboid; the
// caller applies its own min_sup and closedness filters in emit.
func (s *Space) Process(emit Emit) {
	s.process(len(s.dims), emit)
}

// process emits the cuboid of level k and walks its children: a child drops
// member j when j is designated, the cheapest way back into the parent
// lattice from members∖{j} — j orders strictly before every position outside
// the member set (by size, then index). This makes the parent relation a
// spanning tree: every cuboid is computed from exactly one parent.
func (s *Space) process(k int, emit Emit) {
	lv := &s.a.levels[k]
	s.emitCuboid(lv, emit)
	for mi, j := range lv.members {
		if s.before[j]&^lv.mask != 0 {
			continue
		}
		s.sumOut(k, mi)
		s.process(k-1, emit)
	}
}

// emitCuboid walks one cuboid array, emitting cells without "other"
// coordinates.
func (s *Space) emitCuboid(lv *level, emit Emit) {
	var cls core.Closedness
	var aux float64
	k := len(lv.members)
	if k == 0 {
		if s.closed {
			cls = lv.cls[0]
		}
		if s.auxIn != nil {
			aux = lv.aux[0]
		}
		emit(nil, nil, lv.counts[0], cls, aux)
		return
	}
	s.mdims = s.mdims[:0]
	for _, m := range lv.members {
		s.mdims = append(s.mdims, s.dims[m])
	}
	s.coords = grow(s.coords, k)
	clear(s.coords)
	s.dimVals = grow(s.dimVals, k)
	coords, dimVals := s.coords, s.dimVals
	others := 0 // how many coords sit on the "other" bucket
	for idx, n := range lv.counts {
		if others == 0 && n > 0 {
			for i, m := range lv.members {
				dimVals[i] = s.dims[m].Vals[coords[i]]
			}
			if s.closed {
				cls = lv.cls[idx]
			}
			if s.auxIn != nil {
				aux = lv.aux[idx]
			}
			emit(s.mdims, dimVals, n, cls, aux)
		}
		// Advance the odometer, tracking "other" occupancy.
		for i, m := range lv.members {
			coords[i]++
			if coords[i] == s.sizes[m]-1 {
				others++ // entered the other bucket
			}
			if coords[i] == s.sizes[m] {
				coords[i] = 0
				others-- // left the other bucket by rollover
				continue
			}
			break
		}
	}
}

// sumOut computes, into level k-1, the child of level k's cuboid that drops
// members[mi], merging counts, closedness and the stored measure aggregate.
// The parent is [outer][size][inner] with size the dropped member's extent;
// each child row o is the parent's first inner run of block o, then every
// later run added to it.
func (s *Space) sumOut(k, mi int) {
	p, c := &s.a.levels[k], &s.a.levels[k-1]
	m := p.members[mi]
	c.members = append(append(c.members[:0], p.members[:mi]...), p.members[mi+1:]...)
	c.mask = p.mask &^ (1 << m)
	inner := 1
	for _, x := range p.members[:mi] {
		inner *= s.sizes[x]
	}
	block := inner * s.sizes[m]
	n := len(p.counts) / s.sizes[m]

	c.counts = grow(c.counts, n)
	for o, q := 0, 0; o < n; o, q = o+inner, q+block {
		dst, src := c.counts[o:o+inner], p.counts[q:q+block]
		copy(dst, src)
		for j := inner; j < block; j += inner {
			for i, v := range src[j : j+inner] {
				dst[i] += v
			}
		}
	}
	if s.closed {
		c.cls = grow(c.cls, n)
		for o, q := 0, 0; o < n; o, q = o+inner, q+block {
			dst, src := c.cls[o:o+inner], p.cls[q:q+block]
			copy(dst, src)
			for j := inner; j < block; j += inner {
				for i, x := range src[j : j+inner] {
					if x.Rep != core.NilTID {
						dst[i].Merge(x, s.check, s.cols)
					}
				}
			}
		}
	}
	if s.auxIn != nil {
		c.aux = grow(c.aux, n)
		for o, q := 0, 0; o < n; o, q = o+inner, q+block {
			dst, src := c.aux[o:o+inner], p.aux[q:q+block]
			copy(dst, src)
			for j := inner; j < block; j += inner {
				combine(s.kind, dst, src[j:j+inner])
			}
		}
	}
}

// combine folds src into dst element-wise with core.CombineStored's rule.
// An empty cell's aggregate is the kind's identity, so it folds as a no-op.
func combine(kind core.MeasureKind, dst, src []float64) {
	dst = dst[:len(src)]
	switch kind {
	case core.MeasureMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	case core.MeasureMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	default:
		for i, v := range src {
			dst[i] += v
		}
	}
}
