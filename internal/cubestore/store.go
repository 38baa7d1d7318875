// Package cubestore stores a computed closed (iceberg) cube in a form built
// for serving point and slice queries. The closed cube is a lossless
// compression of the full cube (quotient-cube semantics): the count of ANY
// cell — closed or not — equals the count of its closure, the most specific
// closed cell covering it. The store therefore answers arbitrary group-by
// point queries without the base relation and without the QC-tree's
// worst-case-exponential drill-down walk.
//
// Layout: cells are grouped per cuboid, i.e. per fixed-dimension mask. Each
// group holds the cells' fixed values as packed keys (the codec of
// core.AppendValue, 4 bytes per fixed dimension, dimensions ascending),
// sorted lexicographically, with parallel count and optional measure arrays.
// A point query probes the query's own cuboid with one binary search (a hit
// is the cell itself, hence exact) and otherwise probes the covering cuboids
// — fixed-dimension superset groups — narrowing by binary search on the
// longest bound prefix and taking the maximum count over covering cells,
// which is the closure's count (equal-count ties resolve to the most
// specific cell, the true closure). Covering scans go through the
// cuboid-lattice index: per-dimension lists of the groups fixing that
// dimension, of which the query's shortest is walked — bounding probe cost
// by the candidate count instead of NumCuboids. A miss means the cell is
// empty or fell below the iceberg threshold the cube was computed with.
//
// Beyond point and slice probes, the store answers predicate sub-cube
// selections (Select) and group-by / top-k aggregation (Aggregate); see
// query.go.
//
// A Store is immutable after Build and safe for concurrent readers (the
// probe counter is atomic). That immutability is also what lets a store come
// back from disk without being decoded: a snapshot is the little-endian image
// of exactly these arrays, and Open returns a store whose keys, counts,
// measures and residual columns are sections of the snapshot buffer (see
// snapshot.go).
package cubestore

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"ccubing/internal/core"
)

// group holds one cuboid: all stored cells fixing exactly the dimensions in
// mask. keys is the row-major packed-key matrix (rows() rows of width bytes),
// sorted lexicographically; counts and aux are parallel to the rows.
type group struct {
	mask   core.Mask
	dims   []int // mask's dimensions, ascending
	width  int   // bytes per key: core.ValueWidth * len(dims)
	keys   []byte
	counts []int64
	aux    []float64 // nil when the store carries no measure
}

func (g *group) rows() int { return len(g.counts) }

func (g *group) row(i int) []byte { return g.keys[i*g.width : (i+1)*g.width] }

// find binary-searches for an exact key, returning its row or -1.
func (g *group) find(key []byte) int {
	n := g.rows()
	if g.width == 0 {
		// The apex cuboid has a single, keyless row.
		if n > 0 {
			return 0
		}
		return -1
	}
	i := sort.Search(n, func(i int) bool { return bytes.Compare(g.row(i), key) >= 0 })
	if i < n && bytes.Equal(g.row(i), key) {
		return i
	}
	return -1
}

// prefixRange returns the half-open row range whose keys start with prefix.
func (g *group) prefixRange(prefix []byte) (int, int) {
	n := g.rows()
	p := len(prefix)
	if p == 0 {
		return 0, n
	}
	lo := sort.Search(n, func(i int) bool { return bytes.Compare(g.row(i)[:p], prefix) >= 0 })
	hi := sort.Search(n, func(i int) bool { return bytes.Compare(g.row(i)[:p], prefix) > 0 })
	return lo, hi
}

// probeStripes is the number of independent cache lines the probe counter is
// striped over. A single shared atomic serializes every concurrent reader on
// one cache line (the contention behind the old parallel-query slowdown);
// each probe scratch is pinned to one stripe instead, and Probes() sums.
const probeStripes = 8

// stripedCount is one probe-counter stripe, padded to a cache line so
// neighboring stripes never false-share.
type stripedCount struct {
	n atomic.Int64
	_ [56]byte
}

// probeScratch holds the per-call buffers of the probe path — packed-key
// bytes, the candidate-merge list, the residual field filters — so Lookup,
// Query, Slice, Select and Aggregate run allocation-free in steady state.
// Scratches are pooled per store and pinned to a probe-counter stripe.
type probeScratch struct {
	key    []byte
	cands  []*group
	rest   []fieldMatch
	probes int64 // probes accumulated by the current call, flushed on release
	nOps   int64 // point-lookup operations begun by the current call
	nCand  int64 // candidate-list entries scanned by the current call
	stripe uint32
}

// fieldMatch is one residual bound-dimension filter of a covering probe: the
// packed value expected at a byte offset of each candidate row.
type fieldMatch struct {
	off int
	val [core.ValueWidth]byte
}

// Store is an immutable, concurrency-safe closed-cube query index. Frozen:
// after Build/Open/MergeDelta publish a Store, its fields (and its
// groups') are never written again; only the builder files (builder.go,
// snapshot.go, merge.go, residual.go) write them. TestConcurrentQueries holds
// this under -race: concurrent readers over the whole read API leave the
// store's Save image byte-identical.
type Store struct {
	nd     int
	hasAux bool
	groups []*group // ascending by mask
	byMask map[core.Mask]*group
	// byDim is the cuboid-lattice index: byDim[d] lists the groups whose mask
	// fixes dimension d, ascending by mask. Covering probes iterate the
	// shortest list among a query's bound dimensions instead of every group,
	// bounding probe cost by the candidate count.
	byDim [][]*group
	// maxVal[d] bounds the values (as their unsigned 32-bit codes) any stored
	// cell or residual row fixes dimension d to. Aggregate sizes its packed
	// integer keys and its value-set bitmaps from these bounds.
	maxVal []uint32
	cells  int64
	// res, when non-nil, is the residual summary of the iceberg pruning the
	// cube was computed with (sub-threshold base cells with counts and stored
	// aggregates), making Aggregate exact at any threshold. Nil on stores
	// built without one.
	res *Residual
	// probes counts covering-group probes performed by Lookup, Slice, Select
	// and Aggregate since the store was built — an observability counter,
	// striped across cache lines so concurrent readers don't contend.
	probes  [probeStripes]stripedCount
	scratch sync.Pool // *probeScratch
	aggs    sync.Pool // *aggScratch[K], any key width (see getAggScratch)
	stripes atomic.Uint32
}

// getScratch takes a probe scratch from the pool (allocating buffers sized
// for this store on a pool miss, with stripes assigned round-robin).
func (s *Store) getScratch() *probeScratch {
	if v := s.scratch.Get(); v != nil {
		return v.(*probeScratch)
	}
	return s.newScratch()
}

// newScratch is the pool-miss cold path of getScratch, kept out of the hot
// path so its allocations are visibly one-time.
func (s *Store) newScratch() *probeScratch {
	return &probeScratch{
		key:    make([]byte, 0, s.nd*core.ValueWidth),
		cands:  make([]*group, 0, 64),
		rest:   make([]fieldMatch, 0, core.MaxDims),
		stripe: s.stripes.Add(1) % probeStripes,
	}
}

// putScratch flushes the scratch's probe tallies into its stripe (the
// store's own counter plus the package-wide totals) and returns the scratch
// to the pool.
func (s *Store) putScratch(sc *probeScratch) {
	if sc.probes != 0 {
		s.probes[sc.stripe].n.Add(sc.probes)
		totalProbes[sc.stripe].n.Add(sc.probes)
		sc.probes = 0
	}
	if sc.nOps != 0 {
		totalOps[sc.stripe].n.Add(sc.nOps)
		sc.nOps = 0
	}
	if sc.nCand != 0 {
		totalCands[sc.stripe].n.Add(sc.nCand)
		sc.nCand = 0
	}
	s.scratch.Put(sc)
}

// Package-wide probe totals, striped like the per-store counter and flushed
// on the same scratch release. Per-store counters die with their store when
// a refresh publishes a replacement; these survive the swap, so process
// metrics built on them stay monotonic.
var (
	totalOps    [probeStripes]stripedCount
	totalProbes [probeStripes]stripedCount
	totalCands  [probeStripes]stripedCount
)

// ProbeTotals reports cumulative probe statistics across every store that
// has served in this process: point-lookup operations (Query/Lookup calls),
// covering groups probed, and candidate-list entries scanned. The ratios
// groupsProbed/ops and candidates/ops are the mean probe depth and mean
// candidate list length the lattice index delivers.
func ProbeTotals() (ops, groupsProbed, candidates int64) {
	for i := range totalOps {
		ops += totalOps[i].n.Load()
		groupsProbed += totalProbes[i].n.Load()
		candidates += totalCands[i].n.Load()
	}
	return ops, groupsProbed, candidates
}

// NumDims returns the dimensionality of the stored cube.
func (s *Store) NumDims() int { return s.nd }

// NumCells returns the number of stored closed cells.
func (s *Store) NumCells() int64 { return s.cells }

// NumCuboids returns the number of non-empty cuboid groups.
func (s *Store) NumCuboids() int { return len(s.groups) }

// HasAux reports whether cells carry a complex-measure value.
func (s *Store) HasAux() bool { return s.hasAux }

// Probes returns the cumulative number of cuboid groups probed by covering
// scans (Lookup misses of the exact cuboid, Slice, Select, Aggregate) since
// the store was built. Monotonic; the delta across a query bounds the
// lattice-indexed probe cost and is asserted by tests and benchmarks.
func (s *Store) Probes() int64 {
	var total int64
	for i := range s.probes {
		total += s.probes[i].n.Load()
	}
	return total
}

// candidates returns the groups whose mask can cover q (mask ⊇ q), ascending
// by mask: the intersection of the two shortest per-dimension lattice lists
// among q's bound dimensions (every covering group fixes all bound
// dimensions, so it appears in both). Entries still need the mask-superset
// check — the result is a superset of the covering groups, but its length,
// not NumCuboids, bounds the scan. With a single bound dimension that
// dimension's list is returned directly; a fully-wildcard query is covered by
// every group. The merge path writes into *buf (the caller's scratch,
// regrown in place), so steady-state calls never allocate.
func (s *Store) candidates(q core.Mask, buf *[]*group) []*group {
	if q == 0 {
		return s.groups
	}
	var best, second []*group
	first := true
	for m := uint64(q); m != 0; m &= m - 1 {
		l := s.byDim[bits.TrailingZeros64(m)]
		switch {
		case first:
			best, first = l, false
		case len(l) < len(best):
			best, second = l, best
		case second == nil || len(l) < len(second):
			second = l
		}
	}
	// An empty list is the tightest bound of all: no group fixes that
	// dimension, so nothing can cover q.
	if len(best) == 0 || second == nil {
		return best
	}
	// Both lists ascend by mask (buildIndex appends in group order), so the
	// intersection is a linear merge.
	out := (*buf)[:0]
	for i, j := 0, 0; i < len(best) && j < len(second); {
		switch {
		case best[i] == second[j]:
			out = append(out, best[i])
			i++
			j++
		case best[i].mask < second[j].mask:
			i++
		default:
			j++
		}
	}
	*buf = out
	return out
}

// Bytes returns the approximate in-memory payload size: packed keys plus
// count and measure arrays, plus the residual summary when one is attached.
func (s *Store) Bytes() int64 {
	var b int64
	for _, g := range s.groups {
		b += int64(len(g.keys)) + 8*int64(len(g.counts)) + 8*int64(len(g.aux))
	}
	return b + s.res.Bytes()
}

// queryMask computes the fixed-dimension mask of a query vector. A query of
// the wrong arity is a programmer error, not a miss: it panics (like an
// out-of-range index) so shape bugs surface instead of reading as
// below-threshold cells.
func (s *Store) queryMask(vals []core.Value) core.Mask {
	if len(vals) != s.nd {
		panic(fmt.Sprintf("cubestore: query has %d dimensions, store has %d", len(vals), s.nd))
	}
	var q core.Mask
	for d, v := range vals {
		if v != core.Star {
			q = q.With(d)
		}
	}
	return q
}

// probe scans one covering group for cells matching the query values on the
// query's bound dimensions, reporting the best (maximum-count) matching row,
// or -1. Rows counting no more than floor are skipped, so callers encode the
// tie-break policy in the floor they pass. q must be a subset of g.mask. The
// scratch supplies the prefix and residual-filter buffers, keeping the probe
// allocation-free.
func (g *group) probe(q core.Mask, vals []core.Value, floor int64, sc *probeScratch) (int, int64) {
	// The leading run of g's dimensions that the query binds forms a key
	// prefix, narrowing the scan by binary search.
	p := 0
	for p < len(g.dims) && q.Has(g.dims[p]) {
		p++
	}
	prefix := core.AppendValues(sc.key[:0], vals, g.dims[:p])
	sc.key = prefix
	lo, hi := g.prefixRange(prefix)
	if lo >= hi {
		return -1, floor
	}
	// Remaining bound dimensions to filter on within the range.
	rest := sc.rest[:0]
	for j := p; j < len(g.dims); j++ {
		if q.Has(g.dims[j]) {
			var f fieldMatch
			f.off = j * core.ValueWidth
			core.AppendValue(f.val[:0], vals[g.dims[j]])
			rest = append(rest, f)
		}
	}
	sc.rest = rest
	bestRow := -1
	for i := lo; i < hi; i++ {
		if g.counts[i] <= floor {
			continue
		}
		row := g.row(i)
		ok := true
		for _, f := range rest {
			if !bytes.Equal(row[f.off:f.off+core.ValueWidth], f.val[:]) {
				ok = false
				break
			}
		}
		if ok {
			floor = g.counts[i]
			bestRow = i
		}
	}
	return bestRow, floor
}

// Query returns the count of an arbitrary cell (core.Star marks wildcard
// dimensions). The second result is false when the cell is empty or fell
// below the iceberg threshold of the stored cube. It panics if vals does not
// have exactly NumDims entries. Unlike Lookup it never materializes the
// closure cell, so steady-state calls are allocation-free.
func (s *Store) Query(vals []core.Value) (int64, bool) {
	sc := s.getScratch()
	g, row := s.lookupRow(vals, sc)
	var count int64
	if row >= 0 {
		count = g.counts[row]
	}
	s.putScratch(sc)
	return count, row >= 0
}

// Lookup resolves an arbitrary cell to its closure: the stored closed cell
// covering it with the same count (and measure value). The returned cell's
// Values slice is freshly allocated. ok is false when the cell is empty or
// below the stored cube's iceberg threshold. It panics if vals does not have
// exactly NumDims entries.
func (s *Store) Lookup(vals []core.Value) (core.Cell, bool) {
	sc := s.getScratch()
	g, row := s.lookupRow(vals, sc)
	s.putScratch(sc)
	if row < 0 {
		return core.Cell{}, false
	}
	return s.cellAt(g, row), true
}

// lookupRow locates the closure of an arbitrary cell as a (group, row) pair,
// row -1 on a miss: the shared, allocation-free core of Query and Lookup.
func (s *Store) lookupRow(vals []core.Value, sc *probeScratch) (*group, int) {
	sc.nOps++
	q := s.queryMask(vals)
	// Fast path: the queried cell is itself closed — a hit in its own cuboid
	// is exact (covering cells in superset cuboids never exceed its count).
	if g := s.byMask[q]; g != nil {
		key := core.AppendValues(sc.key[:0], vals, g.dims)
		sc.key = key
		if i := g.find(key); i >= 0 {
			return g, i
		}
	}
	// The cell is not closed (or absent): its closure lives in a cuboid
	// fixing a strict superset of the query's dimensions. Among covering
	// cells the closure has the maximum count; equal-count ties break toward
	// the most specific (largest-mask) covering cell — with equal counts the
	// covering cells aggregate the same tuples, so the most specific one IS
	// the closure, and the tie-break keeps the returned cell deterministic
	// and exact even for stores holding non-closed cells. The lattice index
	// bounds the scan to candidate groups instead of all NumCuboids groups.
	best := int64(-1)
	bestSpec := -1
	var bestG *group
	bestRow := -1
	cands := s.candidates(q, &sc.cands)
	sc.nCand += int64(len(cands))
	for _, g := range cands {
		if g.mask&q != q || g.mask == q {
			continue
		}
		sc.probes++
		// A group at most as specific as the current best can only win with a
		// strictly larger count; a more specific one also wins a count tie.
		floor := best
		if len(g.dims) > bestSpec {
			floor = best - 1
		}
		if row, b := g.probe(q, vals, floor, sc); row >= 0 {
			best, bestSpec, bestG, bestRow = b, len(g.dims), g, row
		}
	}
	return bestG, bestRow
}

// decode writes the values row i of g fixes into the full-width vals; the
// other positions are the caller's to set to Star.
func (g *group) decode(i int, vals []core.Value) {
	row := g.row(i)
	for j, d := range g.dims {
		vals[d] = core.DecodeValue(row[j*core.ValueWidth:])
	}
}

// cellAt materializes row i of g as a full-width cell.
func (s *Store) cellAt(g *group, i int) core.Cell {
	vals := make([]core.Value, s.nd)
	for d := range vals {
		vals[d] = core.Star
	}
	g.decode(i, vals)
	c := core.Cell{Values: vals, Count: g.counts[i]}
	if g.aux != nil {
		c.Aux = g.aux[i]
	}
	return c
}

// Slice visits every stored closed cell inside the sub-cube the query pins
// down: cells fixing a superset of the query's bound dimensions with matching
// values. It is Select with an exact predicate on every bound dimension — a
// slice is a selection with equality predicates — so visiting order, early
// stop and the wrong-arity panic are Select's.
func (s *Store) Slice(vals []core.Value, visit func(core.Cell) bool) {
	spec := Spec{Preds: make([]Pred, len(vals))}
	for d, v := range vals {
		if v != core.Star {
			spec.Preds[d] = Pred{Kind: PredEq, Val: v}
		}
	}
	s.Select(spec, visit)
}

// Walk visits every stored cell (cuboid mask ascending, key ascending).
func (s *Store) Walk(visit func(core.Cell) bool) {
	for _, g := range s.groups {
		for i := 0; i < g.rows(); i++ {
			if !visit(s.cellAt(g, i)) {
				return
			}
		}
	}
}
