package ccubing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccubing/internal/core"
	"ccubing/internal/cubestore"
	"ccubing/internal/qcache"
	"ccubing/internal/refresh"
	"ccubing/internal/table"
)

// Cube is a materialized closed (iceberg) cube ready for serving: a
// concurrency-safe index over the closed cells that answers point and slice
// queries for ANY cell — closed or not — by resolving the cell to its
// closure (quotient-cube semantics, the lossless-compression property of the
// closed cube). Built by Materialize or loaded from a snapshot with
// LoadCube; safe for concurrent readers.
//
// A materialized cube is live: it keeps its source relation and accepts
// appended tuples (Append, AppendValues, AppendNDJSON) that fold in on
// Refresh — or automatically, see AutoRefresh — by recomputing only the
// partitions the delta touched and publishing the rebuilt store with an
// atomic snapshot swap. Queries in flight during a refresh finish on the old
// store; each answer is always consistent with exactly one generation of the
// relation. Snapshot-loaded cubes are static (Refreshable reports false).
type Cube struct {
	names  []string
	minSup int64
	alg    Algorithm
	// measure is the kind of the cells' aux values, held at rest as stored
	// aggregates (avg as the running sum) and presented at query egress.
	measure MeasureKind
	stats   Stats
	mgr     *refresh.Manager                 // live cubes: owns the serving snapshot
	static  atomic.Pointer[refresh.Snapshot] // snapshot-loaded cubes
	load    SnapshotLoad                     // snapshot-loaded cubes: what the load cost
	// cache memoizes query results keyed by (generation, normalized query);
	// a refresh bumps the generation, so stale answers are unreachable and
	// age out of the LRU. Nil when caching is disabled (SetQueryCache(0)).
	cache atomic.Pointer[qcache.Cache]
}

// DefaultQueryCacheEntries is the query-result cache capacity cubes start
// with; SetQueryCache resizes or disables it.
const DefaultQueryCacheEntries = 4096

// SetQueryCache resizes the cube's query-result cache to hold up to n entries
// (point lookups and aggregate results); n <= 0 disables caching. The cache
// is replaced wholesale, dropping cached entries and resetting hit/miss
// counters. Safe to call concurrently with queries.
func (c *Cube) SetQueryCache(n int) { c.cache.Store(qcache.New(n)) }

// QueryCacheMetrics reports the cumulative hit and miss counts of the current
// query-result cache; zeros when caching is disabled.
func (c *Cube) QueryCacheMetrics() (hits, misses int64) {
	return c.cache.Load().Metrics()
}

// QueryCacheEvictions reports the cumulative capacity evictions of the
// current query-result cache; zero when caching is disabled.
func (c *Cube) QueryCacheEvictions() int64 {
	return c.cache.Load().Evictions()
}

// snap returns the current serving snapshot with one atomic load. Every
// query method loads it exactly once, so one answer never mixes generations.
func (c *Cube) snap() *refresh.Snapshot {
	if c.mgr != nil {
		return c.mgr.Snapshot()
	}
	return c.static.Load()
}

// Materialize computes the closed iceberg cube of ds and freezes it into a
// queryable Cube. Options are interpreted as in Compute, except that Closed
// is implied (the closed cube is the lossless serving form; Options.Closed
// is ignored). A complex Measure is aggregated during the cubing pass itself
// — one scan, avg stored as the algebraic (sum, count) pair — whichever
// engine runs.
//
// A cube materialized with MinSup > 1 additionally carries the residual
// summary of the pruned mass (one scan of the relation), so Aggregate
// answers exactly — not as a lower bound — at any threshold.
func Materialize(ds *Dataset, opt Options) (*Cube, error) {
	opt.Closed = true
	opt = opt.withDefaults()
	plan, err := planCompute(ds, opt)
	if err != nil {
		return nil, err
	}
	hasAux := opt.Measure != MeasureNone
	b := cubestore.NewBuilder(ds.NumDims(), hasAux)
	st := Stats{Algorithm: plan.alg}
	cellBytes := int64(4*ds.NumDims()) + 8
	if hasAux {
		cellBytes += 8
	}
	// The residual summary of the iceberg-pruned mass: what Aggregate needs to
	// answer exactly below the threshold. It is one scan of the relation that
	// shares nothing with the cubing pass, so a multi-worker build runs the
	// two side by side; a sequential one keeps them in order.
	var res *cubestore.Residual
	residual := func() {
		if opt.MinSup > 1 {
			var auxCol []float64
			if hasAux {
				auxCol = ds.t.Aux
			}
			res = cubestore.ComputeResidual(ds.t.Cols, auxCol, opt.MinSup, opt.Measure)
		}
	}
	var overlap sync.WaitGroup
	if plan.workers > 1 {
		overlap.Add(1)
		go func() {
			defer overlap.Done()
			residual()
		}()
	}
	start := time.Now()
	var runErr error
	if plan.identity() {
		// Zero-copy path: cells arrive in dataset dimension order, so the
		// engine (and, under Workers>1, the merger's batched flushes) feed
		// the store builder directly — no per-cell callback or remap.
		bs := &cubestore.BuilderSink{B: b}
		runErr = plan.run(bs)
		st.Cells = bs.Cells
	} else {
		ss := &storeSink{b: b, perm: plan.perm, scratch: make([]core.Value, ds.NumDims())}
		runErr = plan.run(ss)
		st.Cells = ss.cells
	}
	st.Bytes = st.Cells * cellBytes
	st.Elapsed = time.Since(start)
	overlap.Wait()
	if runErr != nil {
		return nil, runErr
	}
	if plan.workers <= 1 {
		residual()
	}
	if err := b.SetResidual(res); err != nil {
		return nil, fmt.Errorf("ccubing: materialize: %w", err)
	}
	store, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("ccubing: materialize: %w", err)
	}
	cube := &Cube{
		names:   append([]string(nil), ds.t.Names...),
		minSup:  opt.MinSup,
		alg:     st.Algorithm,
		measure: opt.Measure,
		stats:   st,
	}
	cube.cache.Store(qcache.New(DefaultQueryCacheEntries))
	var dicts []*table.Dict
	if ds.dicts != nil {
		dicts = make([]*table.Dict, len(ds.dicts))
		for d, dict := range ds.dicts {
			dicts[d] = table.DictFromNames(dict.Names())
		}
	}
	// Attach the live-refresh manager: the cube keeps the relation so edits
	// can fold in incrementally. A refresh re-aggregates the cells the edits
	// fall in at the build's minsup and measure, with no engine: the closed
	// iceberg cube of a relation is unique, so a refreshed store is
	// byte-identical to a from-scratch rebuild, whichever engine built it.
	cube.mgr, err = refresh.NewManager(ds.t, store, dicts, plan.ecfg)
	if err != nil {
		return nil, fmt.Errorf("ccubing: materialize: %w", err)
	}
	return cube, nil
}

// storeSink feeds engine output into a store builder, remapping reordered
// dimension positions. Measure aggregates pass through in stored form (avg as
// the running sum) — presentation happens at query egress, never at rest.
type storeSink struct {
	b       *cubestore.Builder
	perm    []int
	scratch []core.Value
	cells   int64
}

func (s *storeSink) Emit(vals []core.Value, count int64, aux float64) {
	for i, v := range vals {
		s.scratch[s.perm[i]] = v
	}
	s.b.Add(s.scratch, count, aux)
	s.cells++
}

// NumDims returns the cube's dimensionality.
func (c *Cube) NumDims() int { return len(c.names) }

// Names returns the dimension names (treat as read-only).
func (c *Cube) Names() []string { return c.names }

// NumCells returns the number of stored closed cells.
func (c *Cube) NumCells() int64 { return c.snap().Store.NumCells() }

// NumCuboids returns the number of non-empty cuboids (distinct
// fixed-dimension patterns) among the closed cells.
func (c *Cube) NumCuboids() int { return c.snap().Store.NumCuboids() }

// MinSup returns the iceberg threshold the cube was computed with: queries
// for cells below it miss.
func (c *Cube) MinSup() int64 { return c.minSup }

// Algorithm returns the engine that computed the cube.
func (c *Cube) Algorithm() Algorithm { return c.alg }

// HasMeasure reports whether cells carry a complex-measure value.
func (c *Cube) HasMeasure() bool { return c.snap().Store.HasAux() }

// Measure returns the kind of the complex measure the cube was materialized
// with (MeasureNone when the cube has none). Distributed serving needs it: a
// router can only merge per-shard measure values when it knows how they
// combine.
func (c *Cube) Measure() MeasureKind { return c.measure }

// Labeled reports whether the cube carries dictionaries, i.e. was built from
// a labeled dataset (CSV or NewDataset) and answers queries by label.
func (c *Cube) Labeled() bool { return c.snap().Dicts != nil }

// Stats returns the statistics of the initial build (zero for loaded
// snapshots); refreshes do not update it — see RefreshMetrics.
func (c *Cube) Stats() Stats { return c.stats }

// Bytes returns the approximate in-memory size of the cell store.
func (c *Cube) Bytes() int64 { return c.snap().Store.Bytes() }

// Query returns the count of an arbitrary cell (Star marks wildcard
// dimensions). The second result is false when the cell is empty or fell
// below the cube's iceberg threshold. Cost is bounded by binary-search
// probes of the covering cuboids — no base-relation rescan, no exponential
// tree walk. Safe for concurrent use. Like Lookup and Slice, it panics when
// vals does not have exactly NumDims entries (a shape bug, not a miss).
func (c *Cube) Query(vals []int32) (int64, bool) {
	st := c.snap()
	qc := c.cache.Load()
	if qc == nil {
		start := time.Now()
		n, ok := st.Store.Query(vals)
		probeSeconds.Observe(time.Since(start))
		return n, ok
	}
	e := cachedLookup(qc, st, vals)
	return e.count, e.ok
}

// Lookup resolves an arbitrary cell to its closure: the most specific closed
// cell covering it, which carries the cell's own count (and measure value).
// ok is false when the cell is empty or below the iceberg threshold.
func (c *Cube) Lookup(vals []int32) (Cell, bool) {
	cell, ok := c.LookupStored(vals)
	if ok {
		cell.Aux = c.PresentAux(cell.Aux, cell.Count)
	}
	return cell, ok
}

// LookupStored is Lookup without measure presentation: the returned Aux is
// the stored mergeable aggregate (the running sum on avg cubes) rather than
// the user-facing value. Shard routers combine per-shard stored values
// exactly and present once after the merge; everything else wants Lookup.
func (c *Cube) LookupStored(vals []int32) (Cell, bool) {
	st := c.snap()
	qc := c.cache.Load()
	if qc == nil {
		start := time.Now()
		cc, ok := st.Store.Lookup(vals)
		probeSeconds.Observe(time.Since(start))
		if !ok {
			return Cell{}, false
		}
		return Cell{Values: cc.Values, Count: cc.Count, Aux: cc.Aux}, true
	}
	e := cachedLookup(qc, st, vals)
	if !e.ok {
		return Cell{}, false
	}
	// Hits hand out a copy: the cached closure values are shared by every
	// future hit of this entry and must stay immutable.
	return Cell{Values: append([]int32(nil), e.vals...), Count: e.count, Aux: e.aux}, true
}

// PresentAux converts a stored measure aggregate — a LookupStored result, or
// an AuxAgg-sum aggregate over an avg cube — to the user-facing value: the
// mean on avg cubes (the stored sum divided by the count), the value itself
// otherwise.
func (c *Cube) PresentAux(aux float64, count int64) float64 {
	if c.measure == MeasureAvg {
		return core.Present(core.MeasureAvg, aux, count)
	}
	return aux
}

// Cache key kinds, one per query form sharing the cache.
const (
	cacheKindLookup = 1 // point query / closure lookup, payload = packed cell values
	cacheKindAgg    = 2 // aggregate query, payload = normalized spec + options
)

// lookupEntry is the cached resolution of one cell: its closure (values,
// count, measure) or a definitive miss. Both Query and Lookup share it — a
// cell queried then looked up costs one store probe, not two.
type lookupEntry struct {
	vals  []int32 // closure values; nil on miss
	count int64
	aux   float64
	ok    bool
}

// appendCacheKey starts a cache key in dst: generation, kind byte, then the
// caller's payload. The generation prefix is the invalidation mechanism —
// refreshed cubes never see pre-refresh entries.
func appendCacheKey(dst []byte, gen uint64, kind byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, gen)
	return append(dst, kind)
}

// cachedLookup resolves vals through the cache, filling on miss. Negative
// answers are cached too: an empty cell stays empty for the generation.
func cachedLookup(qc *qcache.Cache, st *refresh.Snapshot, vals []int32) lookupEntry {
	start := time.Now()
	// The key lives on the stack: Get does not retain it and Put copies it,
	// so a cache hit allocates nothing.
	var buf [9 + 4*core.MaxDims]byte
	key := appendCacheKey(buf[:0], st.Generation, cacheKindLookup)
	for _, v := range vals {
		key = binary.BigEndian.AppendUint32(key, uint32(v))
	}
	if v, hit := qc.Get(key); hit {
		cacheHitSeconds.Observe(time.Since(start))
		return v.(lookupEntry)
	}
	pstart := time.Now()
	cc, ok := st.Store.Lookup(vals)
	probeSeconds.Observe(time.Since(pstart))
	e := lookupEntry{count: cc.Count, aux: cc.Aux, ok: ok}
	if ok {
		e.vals = cc.Values
	}
	qc.Put(key, e)
	return e
}

// Slice visits every stored closed cell inside the sub-cube the query pins
// down (cells matching the bound values and fixing at least those
// dimensions). Return false from visit to stop early. Panics on wrong-arity
// vals, like Query.
func (c *Cube) Slice(vals []int32, visit func(Cell) bool) {
	c.snap().Store.Slice(vals, func(cc core.Cell) bool {
		return visit(Cell{Values: cc.Values, Count: cc.Count, Aux: c.PresentAux(cc.Aux, cc.Count)})
	})
}

// Cells visits every stored closed cell (cuboid mask ascending, packed key
// ascending within a cuboid).
func (c *Cube) Cells(visit func(Cell) bool) {
	c.snap().Store.Walk(func(cc core.Cell) bool {
		return visit(Cell{Values: cc.Values, Count: cc.Count, Aux: c.PresentAux(cc.Aux, cc.Count)})
	})
}

// ErrUnknownLabel reports a query label that never occurred in the relation
// the cube was built from; the queried cell is necessarily empty.
var ErrUnknownLabel = errors.New("unknown label")

// ParseCell maps one label per dimension ("*" = wildcard) to coded values
// for Query/Lookup/Slice. Unknown labels return an error wrapping
// ErrUnknownLabel; cubes built from coded values (no dictionaries) reject
// label queries outright.
func (c *Cube) ParseCell(labels []string) ([]int32, error) {
	return c.parseCell(c.snap(), labels)
}

func (c *Cube) parseCell(st *refresh.Snapshot, labels []string) ([]int32, error) {
	if st.Dicts == nil {
		return nil, fmt.Errorf("ccubing: cube has no dictionaries; query by coded values")
	}
	if len(labels) != c.NumDims() {
		return nil, fmt.Errorf("ccubing: cell has %d labels, want %d", len(labels), c.NumDims())
	}
	vals := make([]int32, len(labels))
	for d, s := range labels {
		if s == "*" {
			vals[d] = Star
			continue
		}
		code, ok := st.Dicts[d].Lookup(s)
		if !ok {
			return nil, fmt.Errorf("ccubing: %w %q on dimension %s", ErrUnknownLabel, s, c.names[d])
		}
		vals[d] = code
	}
	return vals, nil
}

// Labels renders coded values as labels ("*" for Star). For cubes without
// dictionaries it falls back to decimal codes.
func (c *Cube) Labels(vals []int32) []string {
	return labelsWith(c.snap(), vals)
}

func labelsWith(st *refresh.Snapshot, vals []int32) []string {
	out := make([]string, len(vals))
	for d, v := range vals {
		switch {
		case v == Star:
			out[d] = "*"
		case st.Dicts != nil:
			out[d] = st.Dicts[d].Name(v)
		default:
			out[d] = fmt.Sprintf("%d", v)
		}
	}
	return out
}

// QueryLabels is Query by dictionary labels ("*" = wildcard). Unknown labels
// are honest misses (the cell is empty), not errors; the error reports
// structural misuse (wrong arity, cube without dictionaries).
func (c *Cube) QueryLabels(labels []string) (int64, bool, error) {
	st := c.snap()
	vals, err := c.parseCell(st, labels)
	if err != nil {
		if errors.Is(err, ErrUnknownLabel) {
			return 0, false, nil
		}
		return 0, false, err
	}
	if qc := c.cache.Load(); qc != nil {
		e := cachedLookup(qc, st, vals)
		return e.count, e.ok, nil
	}
	count, ok := st.Store.Query(vals)
	return count, ok, nil
}

// FormatCell renders a cell with the cube's dictionaries, mirroring
// Dataset.FormatCell for serving-side output.
func (c *Cube) FormatCell(cell Cell) string {
	var b bytes.Buffer
	b.WriteByte('(')
	for d, s := range labelsWith(c.snap(), cell.Values) {
		if d > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s)
	}
	fmt.Fprintf(&b, " : %d)", cell.Count)
	return b.String()
}
