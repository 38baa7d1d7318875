// Package parallel is the partition decomposition of paper Sec. 6.3, in
// memory and out of core: the relation is split on one dimension into shards,
// each shard is cubed independently by a pool of workers, and the cells that
// collapse the partitioning dimension come from one pass over the projection
// of the relation without that dimension.
//
// A cell that fixes the partitioning dimension dim has all of its tuples
// inside one shard (shards group dimension values), so count, measure and
// closedness computed there are globally correct; shard runs keep exactly
// those cells. For plain iceberg cubes the projection cube is exactly the
// wildcard slice of the full cube (counts and measures aggregate over the
// removed dimension). For closed cubes the two halves meet at a seam: a
// candidate c, closed in the projection with count n >= minsup, is still
// non-closed in the full cube when all of its tuples share one value v on
// dim. The seam rule decides that from cells already computed, with no
// second pass over the relation:
//
//  1. c's tuples all carry v on dim iff the cell c[dim=v] has count n.
//  2. That cell has c's tuple set, so it is closed on every other dimension
//     (c is), fixes dim, and clears minsup: the shard holding v emits it.
//  3. Conversely an emitted cell fixing dim whose dim-starred image is c
//     aggregates a subset of c's tuples; with count n it is all of them.
//  4. So c is dropped iff some cell fixing dim projects onto c with equal
//     count — a hash join of the shard cells against the candidates.
//
// This is the paper's aggregation-based test (Sec. 3) read at one dimension:
// a cell is non-closed exactly when a one-step specialisation has the same
// count, decided from aggregates already held rather than from the tuples.
// Shard jobs record the projection and count of what they forward; when the
// pool has drained each record probes the candidate index once.
//
// Shards follow the data. A shard mixing several values of dim cubes its
// whole wildcard-on-dim slice only for the fixed-dimension filter to drop
// it; a shard holding one value has every tuple agreeing on dim, every such
// cell is non-closed, and closed pruning (Lemma 5) cuts the subtree before it
// is built — half of the shard CPU on an 8-dimension, 50-value relation
// (1.17 s -> 0.62 s). But every engine run pays set-up proportional to the
// cardinalities, so a shard per value loses when values are many and small
// (2.2 s against 0.93 s hashed at 120k tuples over 20 000 values). The rule,
// computed from the relation: a value holding at least Cards[dim] tuples
// is a shard by itself, the light tail is hashed into 4×Workers buckets.
//
// Where a shard's tuples sit is a property of the shard job, not a second
// driver. In memory, one scatter groups the relation by shard and each job is
// handed its view. With Config.Buckets set the relation is spilled instead
// (internal/partition: at most Buckets files, value modulo the count, since
// every file is open during the scan) and each job loads one file, cuts
// it by the same rule — a heavy value hashed in with others would lose its
// Lemma 5 pruning — cubes the pieces and lets the bucket go, so at most
// Workers bucket copies are resident. The relation itself, the projection
// pass and the recorded cells stay in memory either way.
//
// Run is the decomposition, behind a Workers > 1 build and the facade's
// ComputePartitioned (Run with Buckets set).
package parallel

import (
	"fmt"
	"math/bits"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/partition"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Config parameterizes a parallel run.
type Config struct {
	// Workers is the number of concurrent engine goroutines; values below 1
	// run the same decomposition on a single goroutine.
	Workers int
	// Dim is the partitioning dimension; negative picks the dimension with
	// the highest cardinality (whose fixed cells — the bulk of the cube —
	// then spread across the most shards).
	Dim int
	// Buckets above zero runs the shard jobs out of core: the relation is
	// spilled into at most that many bucket files in a directory created
	// under TempDir (the system one when empty) and removed on return, and
	// each shard job loads one file, so at most Workers bucket copies are
	// resident. Zero shards an in-memory copy instead.
	Buckets int
	TempDir string
}

// Stats describes one decomposed run: where its time went and how much work
// the seam did. The zero value is what a relation that cannot be decomposed
// reports.
type Stats struct {
	// Split, Projection and Seam are wall times: assigning and scattering the
	// relation into shards (or spilling it), cubing the projection without
	// the partition dimension (with the candidate index, in closed mode), and
	// probing that index then emitting the survivors. ShardJobs is summed over
	// the shard jobs — their busy time, equal to wall time at one worker.
	Split, Projection, ShardJobs, Seam time.Duration
	// HeavyShards holds one partition value each, BucketShards a hashed group
	// of light ones.
	HeavyShards, BucketShards int
	// Candidates is the number of closed cells of the projection cube, Killed
	// how many of them the seam dropped. Every probe is one cell fixing the
	// partition dimension looked up among the candidates: Recorded such cells
	// came from this run's shard jobs, and Probes == Recorded — the seam never
	// touches a tuple.
	Candidates, Killed int64
	Recorded, Probes   int64
}

// Run computes the cube of t with eng under ecfg, distributing the work
// across cfg.Workers goroutines, and emits every cell into out. Emissions
// are serialized (out need not be goroutine-safe) but arrive in
// nondeterministic order. The emitted cell set is identical to
// eng.Run(t, ecfg, out).
func Run(t *table.Table, eng *engine.Engine, ecfg engine.Config, cfg Config, out sink.Sink) error {
	_, err := run(t, eng, ecfg, cfg, out)
	return err
}

// run is Run, reporting the decomposition's Stats. A relation that cannot be
// decomposed — fewer than two dimensions, or no tuples — is cubed whole.
func run(t *table.Table, eng *engine.Engine, ecfg engine.Config, cfg Config, out sink.Sink) (Stats, error) {
	var st Stats
	workers := max(cfg.Workers, 1)
	nd := t.NumDims()
	if nd < 2 || t.NumTuples() == 0 {
		// Nothing to decompose on; a single sequential run is the whole job.
		return st, eng.Run(t, ecfg, out)
	}
	dim := cfg.Dim
	if dim < 0 {
		dim = 0
		for d := 1; d < nd; d++ {
			if t.Cards[d] > t.Cards[dim] {
				dim = d
			}
		}
	}
	if dim >= nd {
		return st, fmt.Errorf("parallel: dimension %d out of range", dim)
	}

	start := time.Now()
	var heavyShards, bucketShards atomic.Int64
	var shardJobs []shardJob
	if cfg.Buckets > 0 {
		dir, err := os.MkdirTemp(cfg.TempDir, "ccubing-part-*")
		if err != nil {
			return st, fmt.Errorf("parallel: %w", err)
		}
		defer os.RemoveAll(dir)
		nb := min(cfg.Buckets, t.Cards[dim])
		buckets, err := partition.Spill(t, dim, modShards(t.Cards[dim], nb), nb, dir)
		if err != nil {
			return st, err
		}
		for _, b := range buckets {
			shardJobs = append(shardJobs, shardJob{b.Tuples, func() ([]*table.Table, error) {
				bt, err := partition.Load(b, t)
				if err != nil {
					return nil, err
				}
				shards, heavy := cut(bt, dim, workers)
				heavyShards.Add(int64(heavy))
				bucketShards.Add(int64(len(shards) - heavy))
				return shards, nil
			}})
		}
	} else {
		shards, heavy := cut(t, dim, workers)
		heavyShards.Store(int64(heavy))
		bucketShards.Store(int64(len(shards) - heavy))
		for _, shard := range shards {
			shardJobs = append(shardJobs, shardJob{shard.NumTuples(), func() ([]*table.Table, error) {
				return []*table.Table{shard}, nil
			}})
		}
	}
	st.Split = time.Since(start)
	projDims := make([]int, 0, nd-1)
	for d := 0; d < nd; d++ {
		if d != dim {
			projDims = append(projDims, d)
		}
	}
	pt, err := t.Project(projDims) // the projection without dim
	if err != nil {
		return st, err
	}

	merger := sink.NewMerger(out)
	var sm *seam
	if ecfg.Closed {
		sm = &seam{cellBuf: cellBuf{pw: nd - 1}, dim: dim}
	}

	// The projection pass is usually the longest job, so it goes first;
	// shards follow largest-first to keep the pool balanced under skew.
	sort.Slice(shardJobs, func(i, j int) bool { return shardJobs[i].tuples > shardJobs[j].tuples })
	jobs := make([]func() error, 0, 1+len(shardJobs))
	jobs = append(jobs, func() error {
		start := time.Now()
		defer func() { st.Projection = time.Since(start) }()
		if sm != nil {
			if err := eng.Run(pt, ecfg, sm); err != nil {
				return fmt.Errorf("parallel: final pass: %w", err)
			}
			sm.buildIndex()
			return nil
		}
		w := merger.Worker()
		ins := &starInsert{next: w, dim: dim, scratch: make([]core.Value, nd)}
		if err := eng.Run(pt, ecfg, ins); err != nil {
			return fmt.Errorf("parallel: final pass: %w", err)
		}
		w.Flush()
		return nil
	})
	var recs []*recorder
	var shardNanos atomic.Int64
	for _, sj := range shardJobs {
		var rec *recorder
		if sm != nil {
			rec = &recorder{cellBuf: cellBuf{pw: nd - 1}, dim: dim}
			recs = append(recs, rec)
		}
		jobs = append(jobs, func() error {
			start := time.Now()
			shards, err := sj.load()
			if err != nil {
				return err
			}
			w := merger.Worker()
			var next sink.Sink = w
			if rec != nil {
				rec.next = w
				next = rec
			}
			for _, shard := range shards {
				if err := eng.Run(shard, ecfg, &sink.FixedDim{Next: next, Dim: dim}); err != nil {
					return fmt.Errorf("parallel: shard: %w", err)
				}
			}
			w.Flush()
			shardNanos.Add(int64(time.Since(start)))
			return nil
		})
	}
	err = runJobs(workers, jobs)
	st.ShardJobs = time.Duration(shardNanos.Load())
	st.HeavyShards, st.BucketShards = int(heavyShards.Load()), int(bucketShards.Load())
	if err != nil || sm == nil {
		return st, err
	}

	// The seam: every cell fixing dim recorded by this run's shard jobs
	// probes the candidate index once.
	start = time.Now()
	jobs = jobs[:0]
	for _, rec := range recs {
		st.Recorded += int64(len(rec.counts))
		jobs = append(jobs, func() error {
			sm.probeAll(&rec.cellBuf)
			return nil
		})
	}
	_ = runJobs(workers, jobs) // probe jobs cannot fail
	st.Candidates, st.Probes = int64(len(sm.counts)), sm.probes.Load()
	st.Killed = sm.emitSurvivors(out) // every worker handle is flushed: out is ours
	st.Seam = time.Since(start)
	return st, nil
}

// shardJob is one shard job's input: the shards it cubes one after another,
// produced when the job runs and dropped when it ends. tuples orders the pool.
type shardJob struct {
	tuples int
	load   func() ([]*table.Table, error)
}

// cut splits t — the relation, or one loaded bucket of it — into its
// non-empty shards by the rule of assignShards.
func cut(t *table.Table, dim, workers int) (shards []*table.Table, heavy int) {
	shardOf, ns, heavy := assignShards(t, dim, workers)
	return splitShards(t, dim, shardOf, ns), heavy
}

// assignShards maps every value of t's partition dimension to one of ns
// shards, from the value counts alone: a value holding at least Cards[dim]
// tuples is a shard by itself (the last heavy of the ns), the rest are hashed
// into min(4×workers, Cards[dim]) buckets. See the package comment for why
// the threshold is the cardinality.
func assignShards(t *table.Table, dim, workers int) (shardOf []int32, ns, heavy int) {
	card := t.Cards[dim]
	counts := make([]int, card)
	for _, v := range t.Cols[dim] {
		counts[v]++
	}
	buckets := max(min(4*workers, card), 1)
	shardOf = modShards(card, buckets)
	for v, n := range counts {
		if n >= card {
			shardOf[v] = int32(buckets + heavy)
			heavy++
		}
	}
	return shardOf, buckets + heavy, heavy
}

// modShards is the all-bucketed assignment of card values: value % ns.
func modShards(card, ns int) []int32 {
	shardOf := make([]int32, card)
	for v := range shardOf {
		shardOf[v] = int32(v % ns)
	}
	return shardOf
}

// ShardTables splits t into ns sub-tables on dimension dim, value % ns
// picking the shard: the all-bucketed case of the assignment Run computes.
func ShardTables(t *table.Table, dim, ns int) []*table.Table {
	return splitShards(t, dim, modShards(t.Cards[dim], ns), ns)
}

// splitShards scatters t into ns sub-tables on dimension dim, shardOf[value]
// picking the shard, so every tuple sharing a dimension value lands in the
// same shard. The shards are zero-copy views: one permutation pass scatters
// the relation into a single backing arena grouped by shard, and each shard's
// columns are sub-slices of it — no per-shard table allocation, and the
// schema (Names, Cards) is shared with the parent, which engines never
// mutate. Empty shards are omitted.
func splitShards(t *table.Table, dim int, shardOf []int32, ns int) []*table.Table {
	n := t.NumTuples()
	nd := t.NumDims()
	counts := make([]int, ns)
	col := t.Cols[dim]
	for tid := 0; tid < n; tid++ {
		counts[shardOf[col[tid]]]++
	}
	offs := make([]int, ns+1)
	for s := 0; s < ns; s++ {
		offs[s+1] = offs[s] + counts[s]
	}
	// pos[tid] is the tuple's destination row in the permuted arena: shards
	// occupy consecutive row ranges [offs[s], offs[s+1]).
	pos := make([]int32, n)
	next := make([]int, ns)
	copy(next, offs[:ns])
	for tid := 0; tid < n; tid++ {
		s := shardOf[col[tid]]
		pos[tid] = int32(next[s])
		next[s]++
	}
	// One arena for all dimensions; every shard column is a view into it.
	arena := make([]core.Value, n*nd)
	cols := make(core.Columns, nd)
	for d := 0; d < nd; d++ {
		dst := arena[d*n : (d+1)*n]
		src := t.Cols[d]
		for tid := 0; tid < n; tid++ {
			dst[pos[tid]] = src[tid]
		}
		cols[d] = dst
	}
	var auxArena []float64
	if t.Aux != nil {
		auxArena = make([]float64, n)
		for tid := 0; tid < n; tid++ {
			auxArena[pos[tid]] = t.Aux[tid]
		}
	}
	shards := make([]*table.Table, 0, ns)
	for s := 0; s < ns; s++ {
		if counts[s] == 0 {
			continue
		}
		st := &table.Table{
			Names: t.Names,
			Cards: t.Cards,
			Cols:  make(core.Columns, nd),
		}
		for d := 0; d < nd; d++ {
			st.Cols[d] = cols[d][offs[s]:offs[s+1]]
		}
		if auxArena != nil {
			st.Aux = auxArena[offs[s]:offs[s+1]]
		}
		shards = append(shards, st)
	}
	return shards
}

// runJobs runs jobs in order on up to workers goroutines. After a job fails,
// jobs not yet started are dropped (in-flight ones finish) and the first
// error is returned.
func runJobs(workers int, jobs []func() error) error {
	var (
		next     atomic.Int64
		failed   atomic.Bool
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := min(workers, len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := jobs[i](); err != nil {
					once.Do(func() { firstErr = err })
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// widen copies a projected cell into dst, one value wider, with Star at the
// removed partition dimension.
func widen(dst, proj []core.Value, dim int) {
	copy(dst[:dim], proj[:dim])
	dst[dim] = core.Star
	copy(dst[dim+1:], proj[dim:])
}

// starInsert widens projected cells back to the full dimensionality
// (projection pass, iceberg mode).
type starInsert struct {
	next    sink.Sink
	dim     int
	scratch []core.Value
}

func (s *starInsert) Emit(vals []core.Value, count int64, aux float64) {
	widen(s.scratch, vals, s.dim)
	s.next.Emit(s.scratch, count, aux)
}

// cellBuf is a growing column buffer of projected cells: pw values and a count
// per cell.
type cellBuf struct {
	pw     int
	vals   []core.Value
	counts []int64
}

// grow doubles a full buffer. Left to append, a large slice grows by a
// quarter at a time, which copies a multi-megabyte arena five times over on
// the run's critical path.
func (b *cellBuf) grow() {
	b.counts = slices.Grow(b.counts, max(len(b.counts), 1024))
	b.vals = slices.Grow(b.vals, cap(b.counts)*b.pw-len(b.vals))
}

// recorder sits behind a closed-mode shard job's fixed-dimension filter: it
// forwards each cell and records the cell's projection without dim and its
// count, which is all the seam needs of it. The buffer lives until the run
// returns.
type recorder struct {
	cellBuf
	next sink.Sink
	dim  int
}

func (r *recorder) Emit(vals []core.Value, count int64, aux float64) {
	r.next.Emit(vals, count, aux)
	if len(r.counts) == cap(r.counts) {
		r.grow()
	}
	r.vals = append(r.vals, vals[:r.dim]...)
	r.vals = append(r.vals, vals[r.dim+1:]...)
	r.counts = append(r.counts, count)
}

// seam is the closed-mode join state. As the projection pass's sink it
// gathers the candidates — the closed cells of the cube without dim — into
// one value arena with parallel count and measure columns; buildIndex hashes
// them by their projected value vector (which spells out the cuboid too);
// probes mark the candidates a cell fixing dim covers with equal count; and
// emitSurvivors forwards the rest, widened, as the wildcard slice.
type seam struct {
	cellBuf
	dim    int // the partition dimension
	aux    []float64
	slots  []int32 // open addressing, linear probing: candidate number + 1, 0 empty
	shift  uint    // 64 - log2(len(slots)): the hash's top bits pick the slot
	kill   []uint64
	probes atomic.Int64
}

// Emit implements sink.Sink for the projection pass.
func (s *seam) Emit(vals []core.Value, count int64, aux float64) {
	if len(s.counts) == cap(s.counts) {
		s.grow()
		s.aux = slices.Grow(s.aux, cap(s.counts)-len(s.aux))
	}
	s.vals = append(s.vals, vals...)
	s.counts = append(s.counts, count)
	s.aux = append(s.aux, aux)
}

// buildIndex hashes the gathered candidates at a load factor below one half.
// The projection cube holds each cell once, so insertion never compares.
func (s *seam) buildIndex() {
	n := len(s.counts)
	size := 1 << bits.Len(uint(2*n))
	s.slots = make([]int32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.kill = make([]uint64, (n+63)/64)
	for ci := 0; ci < n; ci++ {
		i := hashVals(s.vals[ci*s.pw:(ci+1)*s.pw]) >> s.shift
		for s.slots[i] != 0 {
			i = (i + 1) & uint64(size-1)
		}
		s.slots[i] = int32(ci + 1)
	}
}

func hashVals(vals []core.Value) uint64 {
	h := uint64(len(vals))
	for _, v := range vals {
		h = (h ^ uint64(uint32(v))) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h * 0x9E3779B97F4A7C15
}

// probe is the seam rule for one cell fixing dim, given as its projection
// without dim and its count: the candidate with that value vector, if any, is
// covered — hence not closed — iff the counts agree. Safe for concurrent use
// once the index is built.
func (s *seam) probe(proj []core.Value, count int64) {
	mask := uint64(len(s.slots) - 1)
	for i := hashVals(proj) >> s.shift; ; i = (i + 1) & mask {
		ci := int(s.slots[i]) - 1
		if ci < 0 {
			return
		}
		if slices.Equal(s.vals[ci*s.pw:(ci+1)*s.pw], proj) {
			if s.counts[ci] == count {
				atomic.OrUint64(&s.kill[ci>>6], 1<<(ci&63))
			}
			return
		}
	}
}

// probeAll probes one recorder's cells.
func (s *seam) probeAll(b *cellBuf) {
	for i, count := range b.counts {
		s.probe(b.vals[i*s.pw:(i+1)*s.pw], count)
	}
	s.probes.Add(int64(len(b.counts)))
}

// emitSurvivors emits every candidate no probe killed, widened back to the
// full dimensionality, and returns the number killed. All probes must have
// completed. The emitted value slice is scratch, valid only during the call,
// matching the sink contract.
func (s *seam) emitSurvivors(out sink.Sink) (killed int64) {
	vals := make([]core.Value, s.pw+1)
	for ci, count := range s.counts {
		if s.kill[ci>>6]&(1<<(ci&63)) != 0 {
			killed++
			continue
		}
		widen(vals, s.vals[ci*s.pw:(ci+1)*s.pw], s.dim)
		out.Emit(vals, count, s.aux[ci])
	}
	return killed
}
