package cubestore

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"ccubing/internal/core"
	"ccubing/internal/psort"
)

// This file implements the aggregate query engine over the closed-cube store:
// per-dimension predicates (exact, range, value set, wildcard), predicate
// slices (Select) and group-by / top-k aggregation (Aggregate).
//
// Aggregate is one accumulate pass over fixed-width integer keys. Each
// distinct value combination on the group-by plus constrained dimensions is
// packed into an integer sized from the store's per-dimension value bounds;
// the scan of the covering cuboids (lattice candidates only) keeps, per
// combination, the covering cell with the maximum count — its closure, by the
// quotient-cube property — so a combination covered by closed cells in
// several cuboids counts once and no per-combination lookup runs afterwards.
// Combinations fold into their groups by masking the key; the residual of an
// iceberg store is filtered predicate-first over its columns and folds the
// rows of combinations no stored cell covers; groups are ranked on (rank,
// integer key). Predicates are normalised once per call (matcher), so no row
// pays for a linear value-set search.

// PredKind discriminates the per-dimension predicate forms.
type PredKind uint8

const (
	// PredAny matches every value (wildcard dimension).
	PredAny PredKind = iota
	// PredEq matches exactly Val.
	PredEq
	// PredRange matches values in the inclusive interval [Lo, Hi].
	PredRange
	// PredIn matches any value in Set.
	PredIn
)

// Pred is one dimension's predicate.
type Pred struct {
	Kind   PredKind
	Val    core.Value   // PredEq
	Lo, Hi core.Value   // PredRange, inclusive; Lo > Hi matches nothing
	Set    []core.Value // PredIn; empty matches nothing
}

// Bound reports whether the predicate constrains its dimension.
func (p Pred) Bound() bool { return p.Kind != PredAny }

// Match reports whether v satisfies the predicate. It is the reference
// semantics; Select and Aggregate evaluate the normalised matcher instead.
func (p Pred) Match(v core.Value) bool {
	switch p.Kind {
	case PredAny:
		return true
	case PredEq:
		return v == p.Val
	case PredRange:
		return v >= p.Lo && v <= p.Hi
	default:
		return slices.Contains(p.Set, v)
	}
}

// matchKind discriminates the normalised predicate forms.
type matchKind uint8

const (
	matchAny    matchKind = iota
	matchRange            // lo <= v <= hi; PredEq is lo == hi, "nothing" is lo > hi
	matchBits             // membership bitmap over the dimension's value bound
	matchSorted           // sorted value set, binary search
)

// maxBitmapValues caps the value bound a PredIn set is expanded into a bitmap
// for (16 KiB of words); wider dimensions search the sorted set instead.
const maxBitmapValues = 1 << 17

// matcher is one predicate normalised for evaluation against many rows:
// constant time per row whatever the size of a value set.
type matcher struct {
	kind   matchKind
	lo, hi core.Value
	bits   []uint64     // matchBits: bit v set iff v is in the set
	set    []core.Value // matchSorted
}

// newMatcher normalises p for a dimension whose stored values do not exceed
// maxVal (as unsigned codes). Set members beyond the bound match no stored
// value and are dropped.
func newMatcher(p Pred, maxVal uint32) matcher {
	switch p.Kind {
	case PredAny:
		return matcher{kind: matchAny}
	case PredEq:
		return matcher{kind: matchRange, lo: p.Val, hi: p.Val}
	case PredRange:
		return matcher{kind: matchRange, lo: p.Lo, hi: p.Hi}
	}
	if maxVal >= maxBitmapValues {
		set := slices.Clone(p.Set)
		slices.Sort(set)
		return matcher{kind: matchSorted, set: slices.Compact(set)}
	}
	var m matcher
	for _, v := range p.Set {
		if u := uint32(v); u <= maxVal {
			if m.bits == nil {
				m.bits = make([]uint64, maxVal>>6+1)
			}
			m.bits[u>>6] |= 1 << (u & 63)
		}
	}
	if m.bits == nil {
		return matcher{kind: matchRange, lo: 1, hi: 0}
	}
	m.kind = matchBits
	return m
}

// match reports whether v satisfies the predicate.
func (m *matcher) match(v core.Value) bool {
	switch m.kind {
	case matchAny:
		return true
	case matchRange:
		return v >= m.lo && v <= m.hi
	case matchBits:
		u := uint32(v)
		return u>>6 < uint32(len(m.bits)) && m.bits[u>>6]>>(u&63)&1 != 0
	default:
		_, ok := slices.BinarySearch(m.set, v)
		return ok
	}
}

// selectRows writes the indices of col's values satisfying the predicate into
// buf, which must hold len(col) entries, and returns the filled prefix: the
// full-column scan that seeds a selection vector. The range and bitmap loops
// store every index and advance past the kept ones, so a selective predicate
// costs no mispredicted branches.
func (m *matcher) selectRows(col []core.Value, buf []int32) []int32 {
	n := 0
	switch m.kind {
	case matchRange:
		if m.lo > m.hi {
			break
		}
		lo, span := m.lo, uint32(m.hi-m.lo)
		for i, v := range col {
			buf[n] = int32(i)
			if uint32(v-lo) <= span {
				n++
			}
		}
	case matchBits:
		words := m.bits
		for i, v := range col {
			buf[n] = int32(i)
			u := uint32(v)
			if w := u >> 6; w < uint32(len(words)) {
				n += int(words[w] >> (u & 63) & 1)
			}
		}
	default:
		for i, v := range col {
			if m.match(v) {
				buf[n] = int32(i)
				n++
			}
		}
	}
	return buf[:n]
}

// filterRows keeps, in place, the selected rows whose col value satisfies the
// predicate.
func (m *matcher) filterRows(col []core.Value, sel []int32) []int32 {
	kept := sel[:0]
	for _, i := range sel {
		if m.match(col[i]) {
			kept = append(kept, i)
		}
	}
	return kept
}

// Spec is a conjunctive sub-cube selection: one predicate per dimension.
type Spec struct {
	Preds []Pred
}

// boundMask returns the mask of constrained dimensions; panics on arity
// mismatch, like queryMask.
func (s *Store) boundMask(spec Spec) core.Mask {
	if len(spec.Preds) != s.nd {
		panic(fmt.Sprintf("cubestore: spec has %d dimensions, store has %d", len(spec.Preds), s.nd))
	}
	var m core.Mask
	for d, p := range spec.Preds {
		if p.Bound() {
			m = m.With(d)
		}
	}
	return m
}

// matchers normalises every predicate of the spec once, for one Select or
// Aggregate call.
func (s *Store) matchers(spec Spec) []matcher {
	ms := make([]matcher, s.nd)
	for d, p := range spec.Preds {
		ms[d] = newMatcher(p, s.maxVal[d])
	}
	return ms
}

// eqPrefix packs the leading run of exact predicates over g's dimensions into
// the scratch key — a key prefix narrowing the row range by binary search —
// and returns the range with the length of the run.
func (g *group) eqPrefix(spec Spec, sc *probeScratch) (lo, hi, p int) {
	prefix := sc.key[:0]
	for p < len(g.dims) && spec.Preds[g.dims[p]].Kind == PredEq {
		prefix = core.AppendValue(prefix, spec.Preds[g.dims[p]].Val)
		p++
	}
	sc.key = prefix
	lo, hi = g.prefixRange(prefix)
	return lo, hi, p
}

// Select visits every stored closed cell matching the spec: cells that fix
// each constrained dimension with a value satisfying its predicate (the
// predicate generalization of Slice). Visiting order is cuboid mask
// ascending, packed key ascending within a cuboid; return false from visit to
// stop early. Exact at any iceberg threshold, since it filters stored cells.
// Panics when the spec does not have exactly NumDims predicates.
func (s *Store) Select(spec Spec, visit func(core.Cell) bool) {
	q := s.boundMask(spec)
	ms := s.matchers(spec)
	sc := s.getScratch()
	defer s.putScratch(sc)
	cands := s.candidates(q, &sc.cands)
	sc.nCand += int64(len(cands))
	for _, g := range cands {
		if g.mask&q != q {
			continue
		}
		sc.probes++
		lo, hi, p := g.eqPrefix(spec, sc)
	rows:
		for i := lo; i < hi; i++ {
			row := g.row(i)
			for j := p; j < len(g.dims); j++ {
				if !ms[g.dims[j]].match(core.DecodeValue(row[j*core.ValueWidth:])) {
					continue rows
				}
			}
			if !visit(s.cellAt(g, i)) {
				return
			}
		}
	}
}

// AggBy picks the ranking measure of a top-k aggregation.
type AggBy uint8

const (
	// ByCount ranks groups by aggregated count, descending.
	ByCount AggBy = iota
	// ByAux ranks groups by the aggregated measure value, descending.
	ByAux
)

// AuxAgg picks how measure values combine across the cells of one group.
type AuxAgg uint8

const (
	// AuxSum adds measure values (correct for sum-aggregated cubes).
	AuxSum AuxAgg = iota
	// AuxMin keeps the minimum (correct for min-aggregated cubes).
	AuxMin
	// AuxMax keeps the maximum (correct for max-aggregated cubes).
	AuxMax
)

// AggOptions configures Aggregate.
type AggOptions struct {
	// GroupBy lists the dimensions whose value combinations form the result
	// rows; empty computes one grand-total row under the spec's predicates.
	GroupBy []int
	// TopK truncates the result to the k best rows by By; 0 keeps all rows.
	TopK int
	// By ranks rows for TopK (and orders the truncated result best-first).
	By AggBy
	// AuxAgg combines measure values across a group; must match the measure
	// kind the cube was aggregated with for the result to be meaningful.
	AuxAgg AuxAgg
}

// Aggregate answers a group-by query under per-dimension predicates: for
// every distinct value combination on the GroupBy dimensions among tuples
// satisfying the spec, the aggregated count (and measure). Result rows fix
// exactly the GroupBy dimensions, Star elsewhere.
//
// Execution is a single accumulate pass. The stored closed cells fixing every
// group-by and constrained dimension (lattice candidates only) are scanned
// once; each predicate-satisfying row packs its values on those dimensions
// into an integer key, and per key the scan keeps the covering cell Lookup
// would resolve the combination to — a hit in the combination's own cuboid,
// else the maximum count, ties to the most specific cell — so every
// combination carries its closure's exact count however many cuboids cover
// it. Combinations partition the matching tuples, so folding them into their
// groups (the key masked to the group-by fields) gives sums that are exact
// for cubes computed at min_sup 1. On iceberg cubes the stored cells alone
// make the aggregates lower bounds — combinations whose count fell below the
// threshold are absent — but a store carrying a residual (HasResidual)
// recovers exactness: a combination missing from the scan has count <
// min_sup, so every base tuple it covers is a residual row. The residual's
// columns are filtered by the predicates, most selective first, and the
// surviving rows of exactly those combinations fold in (scanned combinations
// already carry true counts, so their residual tuples are skipped — no double
// counting).
//
// Rows are ordered by descending rank (count or measure per opt.By) with ties
// broken by packed group key ascending, so results are deterministic; TopK
// selects the k best under the same order. Panics when the spec's arity or a
// GroupBy dimension is out of range.
func (s *Store) Aggregate(spec Spec, opt AggOptions) []core.Cell {
	q := s.boundMask(spec)
	var gm core.Mask
	for _, d := range opt.GroupBy {
		if d < 0 || d >= s.nd {
			panic(fmt.Sprintf("cubestore: group-by dimension %d out of range (store has %d)", d, s.nd))
		}
		gm = gm.With(d)
	}
	if gm|q == 0 {
		// Grand total without predicates: the apex cell's closure, one lookup.
		// It aggregates every tuple — pruned mass included — so no residual
		// fold-in is needed on a hit. A miss means the store holds no cell at
		// all (any cell covers the apex); the single pass below then folds the
		// residual, which IS the relation, into the one group.
		vals := make([]core.Value, s.nd)
		for d := range vals {
			vals[d] = core.Star
		}
		if c, ok := s.Lookup(vals); ok {
			return []core.Cell{{Values: vals, Count: c.Count, Aux: c.Aux}}
		}
	}
	a := aggCall{s: s, spec: spec, ms: s.matchers(spec), opt: opt, gm: gm, gc: gm | q}
	a.plan(s.maxVal)
	switch {
	case a.words <= 1:
		return aggregate[[1]uint64](&a)
	case a.words <= 4:
		return aggregate[[4]uint64](&a)
	default:
		return aggregate[[core.MaxDims / 2]uint64](&a)
	}
}

// Package-wide aggregate-engine work counters, striped like the probe totals
// and surviving store swaps the same way.
var totalAgg [probeStripes]struct {
	runs, combos, examined, folded atomic.Int64
	_                              [32]byte
}

// AggTotals is the cumulative work of the aggregate engine: Aggregate calls
// that ran the accumulate pass, combinations resolved from stored cells,
// residual rows examined (rows surviving the predicates, whose key columns
// were read) and residual rows folded into a group.
type AggTotals struct {
	Aggregates, Combinations, ResidualExamined, ResidualFolded int64
}

// AggregateTotals reports the aggregate-engine work counters across every
// store that has served in this process. ResidualExamined per aggregate
// tracks the predicates' selectivity times the residual size, not the
// residual size.
func AggregateTotals() AggTotals {
	var t AggTotals
	for i := range totalAgg {
		s := &totalAgg[i]
		t.Aggregates += s.runs.Load()
		t.Combinations += s.combos.Load()
		t.ResidualExamined += s.examined.Load()
		t.ResidualFolded += s.folded.Load()
	}
	return t
}

// aggKey is a packed combination key: the values of the enumeration cuboid's
// dimensions as fixed-width fields of an unsigned integer one or more words
// wide, most significant word first. A field holds its value's packed-key
// bytes (core.AppendValue order), truncated to the bytes the dimension's
// value bound needs, so keys compare like the packed byte keys they replace.
type aggKey interface {
	[1]uint64 | [4]uint64 | [core.MaxDims / 2]uint64
}

// compareKeys orders two keys as unsigned integers.
func compareKeys[K aggKey](a, b K) int {
	for w := 0; w < len(a); w++ {
		if a[w] != b[w] {
			if a[w] < b[w] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// keyField places one dimension inside a key.
type keyField struct {
	dim   int
	word  uint8 // key word holding the field
	shift uint8 // bit offset of the field in that word
	trim  uint8 // 32 minus the field's width in bits
}

// putField ors a value, given as the big-endian reading of its packed bytes
// (see keyOrder), into the key.
func putField[K aggKey](k *K, f keyField, be uint32) {
	(*k)[f.word] |= uint64(be>>f.trim) << f.shift
}

// get extracts the field's value from its key word.
func (f keyField) get(word uint64) core.Value {
	return core.Value(bits.ReverseBytes32(uint32(word>>f.shift) << f.trim))
}

// mask returns the field's bits within its word.
func (f keyField) mask() uint64 { return uint64(^uint32(0)>>f.trim) << f.shift }

// aggCall is the state of one Aggregate call that does not depend on the key
// width.
type aggCall struct {
	s      *Store
	spec   Spec
	ms     []matcher
	opt    AggOptions
	gm, gc core.Mask
	fields []keyField // one per gc dimension, ascending
	words  int        // key words the fields occupy
}

// plan lays out one field per enumeration dimension, ascending from the most
// significant end, each as wide as its dimension's value bound needs in whole
// bytes; a field never straddles words.
func (a *aggCall) plan(maxVal []uint32) {
	a.fields = make([]keyField, 0, a.gc.OnesCount())
	word, free := 0, 64
	for m := uint64(a.gc); m != 0; m &= m - 1 {
		d := bits.TrailingZeros64(m)
		width := max(8, (bits.Len32(maxVal[d])+7)&^7)
		if width > free {
			word, free = word+1, 64
		}
		free -= width
		a.fields = append(a.fields, keyField{dim: d, word: uint8(word), shift: uint8(free), trim: uint8(32 - width)})
	}
	a.words = word + 1
}

// aggEntry is one accumulator: a combination's resolved closure or a group's
// running aggregate.
type aggEntry[K aggKey] struct {
	key   K
	count int64
	aux   float64
	spec  uint8 // combinations: dimensions the covering cell fixes, ownCuboid for an exact hit
}

// ownCuboid marks a combination resolved by a cell of its own cuboid: the
// cell itself, which no covering cell can displace.
const ownCuboid = ^uint8(0)

// aggTable is an insertion-ordered hash table from keys to accumulators:
// dense entries plus an open-addressing index, both reused across calls.
type aggTable[K aggKey] struct {
	ents []aggEntry[K]
	idx  []int32 // 0 = empty, else entry position + 1; len is a power of two
}

const minAggIndex = 1 << 10

// reset empties the table, halving the index after a call that left it
// mostly empty so one large aggregate does not tax every later one.
func (t *aggTable[K]) reset() {
	switch {
	case len(t.idx) == 0:
		t.idx = make([]int32, minAggIndex)
	case len(t.ents)*8 < len(t.idx) && len(t.idx) > minAggIndex:
		t.idx = t.idx[:len(t.idx)/2]
	}
	clear(t.idx)
	t.ents = t.ents[:0]
}

// slot returns the index slot a key's probe sequence starts at.
func (t *aggTable[K]) slot(k K) int {
	// Fields fill words from the top, so a narrow key's low bits are zero:
	// fold the halves together before the multiplicative mix.
	var h uint64
	for w := 0; w < len(k); w++ {
		h = (h ^ k[w] ^ k[w]>>32) * 0x9E3779B97F4A7C15
	}
	return int(h >> (64 - uint(bits.TrailingZeros(uint(len(t.idx))))))
}

// find returns the key's entry, or nil.
func (t *aggTable[K]) find(k K) *aggEntry[K] {
	for i := t.slot(k); ; i = (i + 1) & (len(t.idx) - 1) {
		p := t.idx[i]
		if p == 0 {
			return nil
		}
		if e := &t.ents[p-1]; e.key == k {
			return e
		}
	}
}

// findOrAdd returns the key's entry, adding a zero one when absent. The
// pointer is valid until the next findOrAdd.
func (t *aggTable[K]) findOrAdd(k K) (e *aggEntry[K], added bool) {
	i := t.slot(k)
	for ; t.idx[i] != 0; i = (i + 1) & (len(t.idx) - 1) {
		if e := &t.ents[t.idx[i]-1]; e.key == k {
			return e, false
		}
	}
	t.ents = append(t.ents, aggEntry[K]{key: k})
	t.idx[i] = int32(len(t.ents))
	if 2*len(t.ents) > len(t.idx) {
		t.grow()
	}
	return &t.ents[len(t.ents)-1], true
}

// grow doubles the index and re-inserts every entry.
func (t *aggTable[K]) grow() {
	n := 2 * len(t.idx)
	if cap(t.idx) >= n {
		t.idx = t.idx[:n]
		clear(t.idx)
	} else {
		t.idx = make([]int32, n)
	}
	for p := range t.ents {
		i := t.slot(t.ents[p].key)
		for t.idx[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		t.idx[i] = int32(p + 1)
	}
}

// fold accumulates one (count, measure) contribution into the key's entry.
func (t *aggTable[K]) fold(k K, count int64, aux float64, agg AuxAgg) {
	e, added := t.findOrAdd(k)
	e.count += count
	switch {
	case added:
		e.aux = aux
	case agg == AuxMin:
		e.aux = min(e.aux, aux)
	case agg == AuxMax:
		e.aux = max(e.aux, aux)
	default:
		e.aux += aux
	}
}

// aggScratch holds the per-call tables and selection vector of Aggregate for
// one key width, pooled per store.
type aggScratch[K aggKey] struct {
	combos, groups aggTable[K]
	sel            []int32
}

// getAggScratch takes a scratch of this key width from the store's pool. The
// pool is shared by every width — a store's aggregates are overwhelmingly of
// one — and a scratch of another width is simply dropped.
func getAggScratch[K aggKey](s *Store) *aggScratch[K] {
	if sc, ok := s.aggs.Get().(*aggScratch[K]); ok {
		return sc
	}
	return &aggScratch[K]{}
}

// aggregate runs the accumulate pass of one Aggregate call over keys of
// width K.
func aggregate[K aggKey](a *aggCall) []core.Cell {
	s := a.s
	sc := getAggScratch[K](s)
	sc.combos.reset()
	sc.groups.reset()

	psc := s.getScratch()
	enumerate(a, &sc.combos, psc)
	stripe := psc.stripe
	s.putScratch(psc)

	var gmask K
	for _, f := range a.fields {
		if a.gm.Has(f.dim) {
			gmask[f.word] |= f.mask()
		}
	}
	for i := range sc.combos.ents {
		e := &sc.combos.ents[i]
		gkey := e.key
		for w := 0; w < len(gkey); w++ {
			gkey[w] &= gmask[w]
		}
		sc.groups.fold(gkey, e.count, e.aux, a.opt.AuxAgg)
	}
	var examined, folded int
	if s.res != nil && s.res.NumRows() > 0 {
		sc.sel = s.res.selectRows(a.ms, sc.sel)
		examined = len(sc.sel)
		folded = foldResidual(s.res, sc.sel, a.fields, gmask, &sc.combos, &sc.groups, a.opt.AuxAgg)
	}
	t := &totalAgg[stripe]
	t.runs.Add(1)
	t.combos.Add(int64(len(sc.combos.ents)))
	t.examined.Add(int64(examined))
	t.folded.Add(int64(folded))

	out := resultRows(a, sc.groups.ents)
	s.aggs.Put(sc)
	return out
}

// rowScan describes how one covering cuboid's rows map to keys: which packed
// values to test against which predicate, and where each key field's bytes
// sit in a row.
type rowScan struct {
	test []rowField // constrained dimensions past the binary-searched prefix
	pack []rowField // every key field
}

type rowField struct {
	off int // byte offset of the dimension's value in the cuboid's rows
	m   *matcher
	f   keyField
}

// enumerate scans the cuboids covering the enumeration cuboid and resolves
// every distinct predicate-satisfying combination to the cell Lookup would
// return for it (see lookupRow for the tie-break): groups ascend by mask, so
// the combination's own cuboid — an exact hit — comes first and is final;
// otherwise a cell from a more specific cuboid replaces an equal count, any
// other only a smaller one.
func enumerate[K aggKey](a *aggCall, combos *aggTable[K], sc *probeScratch) {
	cands := a.s.candidates(a.gc, &sc.cands)
	sc.nCand += int64(len(cands))
	var scan rowScan
	for _, g := range cands {
		if g.mask&a.gc != a.gc {
			continue
		}
		sc.probes++
		lo, hi, p := g.eqPrefix(a.spec, sc)
		scan.test, scan.pack = scan.test[:0], scan.pack[:0]
		k := 0
		for j, d := range g.dims {
			if !a.gc.Has(d) {
				continue
			}
			rf := rowField{off: j * core.ValueWidth, m: &a.ms[d], f: a.fields[k]}
			k++
			scan.pack = append(scan.pack, rf)
			if j >= p && rf.m.kind != matchAny {
				scan.test = append(scan.test, rf)
			}
		}
		spec := uint8(len(g.dims))
		if g.mask == a.gc {
			spec = ownCuboid
		}
		scanRows(g, lo, hi, &scan, spec, combos)
	}
}

// scanRows is the row loop of enumerate over one cuboid.
func scanRows[K aggKey](g *group, lo, hi int, scan *rowScan, spec uint8, combos *aggTable[K]) {
rows:
	for i := lo; i < hi; i++ {
		row := g.row(i)
		for _, t := range scan.test {
			if !t.m.match(core.DecodeValue(row[t.off:])) {
				continue rows
			}
		}
		var key K
		for _, t := range scan.pack {
			putField(&key, t.f, binary.BigEndian.Uint32(row[t.off:]))
		}
		count := g.counts[i]
		e, added := combos.findOrAdd(key)
		if !added && (e.spec == ownCuboid || count < e.count || count == e.count && spec <= e.spec) {
			continue
		}
		e.count, e.spec, e.aux = count, spec, 0
		if g.aux != nil {
			e.aux = g.aux[i]
		}
	}
}

// resultRows ranks the groups and materializes the result cells: rank
// descending, key ascending, the TopK best when asked. ents is reordered in
// place; the cells share one freshly allocated value slab.
func resultRows[K aggKey](a *aggCall, ents []aggEntry[K]) []core.Cell {
	byAux := a.opt.By == ByAux
	ents = psort.TopK(ents, a.opt.TopK, func(x, y aggEntry[K]) int {
		switch {
		case byAux && x.aux != y.aux:
			if x.aux > y.aux {
				return -1
			}
			return 1
		case !byAux && x.count != y.count:
			if x.count > y.count {
				return -1
			}
			return 1
		}
		return compareKeys(x.key, y.key)
	})
	nd := a.s.nd
	out := make([]core.Cell, len(ents))
	slab := make([]core.Value, len(ents)*nd)
	for i := range slab {
		slab[i] = core.Star
	}
	for i := range ents {
		e := &ents[i]
		vals := slab[i*nd : (i+1)*nd : (i+1)*nd]
		for _, f := range a.fields {
			if a.gm.Has(f.dim) {
				vals[f.dim] = f.get(e.key[f.word])
			}
		}
		out[i] = core.Cell{Values: vals, Count: e.count, Aux: e.aux}
	}
	return out
}
