// Package parallel is the in-memory, multi-core analogue of the out-of-core
// partition driver (paper Sec. 6.3): the relation is split on one dimension
// into shards, each shard is cubed independently by a pool of workers, and
// the cells that collapse the partitioning dimension come from one final
// pass over the full relation with that dimension taken out of enumeration.
//
// Correctness mirrors internal/partition. A cell that fixes the partitioning
// dimension has all of its tuples inside one shard (shards group dimension
// values), so count, measure and closedness computed there are globally
// correct; shard runs keep exactly those cells. Cells with a wildcard on the
// partitioning dimension are computed by the final pass over the projection
// of the relation without that dimension: for plain iceberg cubes the
// projection cube is exactly the wildcard slice of the full cube (counts and
// measures aggregate over the removed dimension). For closed cubes one more
// check is needed — a cell closed with respect to every remaining dimension
// is still non-closed when all of its tuples agree on the partitioning
// dimension (the cell fixing that shared value covers it with equal count).
// That check is performed the way the paper performs closedness checking:
// by aggregation, not by output indices or per-cell rescans. One scan of the
// relation (parallelized over tuple ranges) folds each tuple's partitioning-
// dimension value into a first-value/conflict aggregate per candidate cell;
// candidates whose aggregate never saw two distinct values are dropped. The
// scan's chunk jobs are submitted into the same worker pool as the shard
// jobs the moment the projection pass finishes, so the check overlaps shard
// cubing instead of serializing after it.
//
// The decomposition has one implementation, RunSub, and two callers: Run (a
// Workers > 1 build: shard jobs over the whole relation) and internal/refresh
// (shard jobs over the partitions a delta touched, the final pass and the
// agreement scan over the whole edited relation).
package parallel

import (
	"fmt"
	"sort"
	"sync"

	"ccubing/internal/core"
	"ccubing/internal/engine"
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
	// Shards bounds how many shards the relation splits into (values are
	// hashed into shards). Defaults to 4×Workers, capped by the partition
	// dimension's cardinality.
	Shards int
}

// Run computes the cube of t with eng under ecfg, distributing the work
// across cfg.Workers goroutines, and emits every cell into out. Emissions
// are serialized (out need not be goroutine-safe) but arrive in
// nondeterministic order. The emitted cell set is identical to
// eng.Run(t, ecfg, out).
func Run(t *table.Table, eng engine.Engine, ecfg engine.Config, cfg Config, out sink.Sink) error {
	return RunSub(t, t, eng, ecfg, cfg, out)
}

// RunSub is the decomposition itself, with the shard jobs restricted to a
// sub-relation: sub must hold, for every partition-dimension value it
// mentions, all of t's tuples with that value (incremental refresh passes the
// partitions a delta touched; Run passes t). The shard jobs cube sub and keep
// the cells fixing the partition dimension, while the final pass and the
// agreement scan see all of t, so the emitted set is the cells of t's cube
// that fix the partition dimension to a value present in sub, plus every
// cell with a wildcard on it. cfg.Dim must name the dimension when sub is a
// strict subset. A relation that cannot be decomposed — fewer than two
// dimensions, or no tuples — is cubed whole, which honours that contract
// only for sub == t.
func RunSub(t, sub *table.Table, eng engine.Engine, ecfg engine.Config, cfg Config, out sink.Sink) error {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	nd := t.NumDims()
	if nd < 2 || t.NumTuples() == 0 {
		// Nothing to decompose on; a single sequential run is the whole job.
		return eng.Run(t, ecfg, out)
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
		return fmt.Errorf("parallel: dimension %d out of range", dim)
	}
	ns := cfg.Shards
	if ns <= 0 {
		ns = 4 * workers
	}
	if ns > t.Cards[dim] {
		ns = t.Cards[dim]
	}
	if ns < 1 {
		ns = 1
	}

	shards := ShardTables(sub, dim, ns)
	projDims := make([]int, 0, nd-1)
	for d := 0; d < nd; d++ {
		if d != dim {
			projDims = append(projDims, d)
		}
	}
	pt, err := t.Project(projDims)
	if err != nil {
		return err
	}

	merger := sink.NewMerger(out)

	// The final pass is usually the longest job, so it goes first; shards
	// follow largest-first to keep the pool balanced under skew.
	sort.Slice(shards, func(i, j int) bool { return shards[i].NumTuples() > shards[j].NumTuples() })
	pool := newPool(workers)
	var scan *agreementScan
	pool.submit(func() error {
		if ecfg.Closed {
			// Closed mode: collect the projection cube's closed candidates and
			// hand the agreement scan's chunk jobs straight back to the pool,
			// so the scan overlaps the shard jobs still running.
			col := &sink.Collector{}
			if err := eng.Run(pt, ecfg, col); err != nil {
				return fmt.Errorf("parallel: final pass: %w", err)
			}
			scan = newAgreementScan(t, dim, projDims, col.Cells, workers)
			if scan != nil {
				for _, job := range scan.jobs() {
					pool.submit(job)
				}
			}
			return nil
		}
		w := merger.Worker()
		ins := &starInsert{next: w, dim: dim, scratch: getValsScratch(nd)}
		if err := eng.Run(pt, ecfg, ins); err != nil {
			return fmt.Errorf("parallel: final pass: %w", err)
		}
		putValsScratch(ins.scratch)
		w.Close()
		return nil
	})
	for _, st := range shards {
		st := st
		pool.submit(func() error {
			w := merger.Worker()
			if err := eng.Run(st, ecfg, &sink.FixedDim{Next: w, Dim: dim}); err != nil {
				return fmt.Errorf("parallel: shard: %w", err)
			}
			w.Close()
			return nil
		})
	}
	if err := pool.wait(); err != nil {
		return err
	}

	if scan != nil {
		w := merger.Worker()
		scan.emitSurvivors(w)
		w.Close()
	}
	return nil
}

// ShardTables splits t into ns sub-tables on dimension dim (value % ns picks
// the shard, so every tuple sharing a dimension value lands in the same
// shard). The shards are zero-copy views: one permutation pass scatters the
// relation into a single backing arena grouped by shard, and each shard's
// columns are sub-slices of it — no per-shard table allocation, and the
// schema (Names, Cards) is shared with the parent, which engines never
// mutate. Empty shards are omitted.
func ShardTables(t *table.Table, dim, ns int) []*table.Table {
	n := t.NumTuples()
	nd := t.NumDims()
	counts := make([]int, ns)
	col := t.Cols[dim]
	for tid := 0; tid < n; tid++ {
		counts[int(col[tid])%ns]++
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
		s := int(col[tid]) % ns
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

// pool is a fixed-size worker pool whose jobs may submit further jobs — the
// property the closed-mode final pass needs to overlap its agreement scan
// with still-running shard jobs. After a job fails, queued jobs are dropped
// (in-flight ones finish) and wait returns the first error.
type pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []func() error
	inflight int
	closed   bool
	firstErr error
	wg       sync.WaitGroup
}

// newPool starts workers goroutines waiting for submit.
func newPool(workers int) *pool {
	p := &pool{}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// submit enqueues a job. Safe to call from running jobs; external submissions
// must happen before wait.
func (p *pool) submit(job func() error) {
	p.mu.Lock()
	p.queue = append(p.queue, job)
	p.mu.Unlock()
	p.cond.Signal()
}

// wait marks the external submission stream closed, waits for the queue to
// drain (including jobs submitted by jobs) and returns the first job error.
func (p *pool) wait() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	return p.firstErr
}

func (p *pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if len(p.queue) > 0 {
			job := p.queue[0]
			p.queue = p.queue[1:]
			if p.firstErr != nil {
				continue // drain without running after a failure
			}
			p.inflight++
			p.mu.Unlock()
			err := job()
			p.mu.Lock()
			p.inflight--
			if err != nil && p.firstErr == nil {
				p.firstErr = err
			}
			if len(p.queue) == 0 && p.inflight == 0 {
				// The pool may be idle for good: wake waiters to re-check.
				p.cond.Broadcast()
			}
			continue
		}
		if p.closed && p.inflight == 0 {
			p.mu.Unlock()
			return
		}
		p.cond.Wait()
	}
}

// valsScratchPool recycles the full-width value buffers of starInsert and the
// survivor widening across jobs and refreshes.
var valsScratchPool = sync.Pool{New: func() any { return new([]core.Value) }}

//ccubing:hotpath
func getValsScratch(nd int) []core.Value {
	s := *valsScratchPool.Get().(*[]core.Value)
	if cap(s) < nd {
		//ccubing:allow pool-miss growth only; steady state reuses the pooled buffer
		s = make([]core.Value, nd)
	}
	return s[:nd]
}

//ccubing:hotpath
func putValsScratch(s []core.Value) {
	valsScratchPool.Put(&s)
}

// starInsert widens projected cells back to the full dimensionality, placing
// Star at the removed partition dimension (final pass, iceberg mode).
type starInsert struct {
	next    sink.Sink
	dim     int
	scratch []core.Value
}

//ccubing:hotpath
func (s *starInsert) Emit(vals []core.Value, count int64, aux float64) {
	copy(s.scratch[:s.dim], vals[:s.dim])
	s.scratch[s.dim] = core.Star
	copy(s.scratch[s.dim+1:], vals[s.dim:])
	s.next.Emit(s.scratch, count, aux)
}

// maskGroup indexes the closed-mode candidates of one cuboid (one pattern of
// fixed projected dimensions) for the agreement scan.
type maskGroup struct {
	dims  []int          // fixed dimensions, as original-table indices
	index map[string]int // packed fixed values -> candidate index
}

// agreementScan is the closed-mode final-pass check, split into
// pool-schedulable chunk jobs: given the closed candidates computed on the
// relation projected without dim, it decides which stay closed once dim
// returns — a candidate all of whose tuples agree on one dim value is covered
// (with equal count) by the cell fixing that value, hence not closed. The
// decision aggregates a first-value/conflict pair per candidate over one scan
// of the relation, chunked by tuple range so the chunks run concurrently with
// other pool work.
type agreementScan struct {
	t          *table.Table
	dim        int
	candidates []core.Cell
	groups     []*maskGroup
	chunks     int
	firsts     [][]core.Value
	conflicts  [][]bool
}

// newAgreementScan prepares the scan over t's tuples for the given
// candidates (values in projDims order), split into at most chunks jobs.
// Returns nil when there are no candidates to check.
func newAgreementScan(t *table.Table, dim int, projDims []int, candidates []core.Cell, chunks int) *agreementScan {
	if len(candidates) == 0 {
		return nil
	}
	if chunks < 1 {
		chunks = 1
	}
	if n := t.NumTuples(); chunks > n {
		chunks = n
	}
	return &agreementScan{
		t:          t,
		dim:        dim,
		candidates: candidates,
		groups:     buildMaskGroups(projDims, candidates),
		chunks:     chunks,
		firsts:     make([][]core.Value, chunks),
		conflicts:  make([][]bool, chunks),
	}
}

// jobs returns the scan's chunk jobs, one per tuple range, each independent
// and safe to run concurrently (they write disjoint per-chunk aggregates).
func (a *agreementScan) jobs() []func() error {
	n := a.t.NumTuples()
	jobs := make([]func() error, a.chunks)
	for c := 0; c < a.chunks; c++ {
		c := c
		jobs[c] = func() error {
			lo, hi := c*n/a.chunks, (c+1)*n/a.chunks
			first := make([]core.Value, len(a.candidates))
			for i := range first {
				first[i] = -1
			}
			conflict := make([]bool, len(a.candidates))
			scanAgreement(a.t, a.dim, a.groups, lo, hi, first, conflict)
			a.firsts[c], a.conflicts[c] = first, conflict
			return nil
		}
	}
	return jobs
}

// emitSurvivors merges the chunk aggregates (all jobs must have completed)
// and emits each surviving candidate widened back to t's dimensionality with
// a wildcard at dim. The emitted value slice is scratch, valid only during
// the call, matching the sink contract.
func (a *agreementScan) emitSurvivors(out sink.Sink) {
	vals := getValsScratch(a.t.NumDims())
	defer putValsScratch(vals)
	for ci, cand := range a.candidates {
		first := core.Value(-1)
		conflict := false
		for c := 0; c < a.chunks && !conflict; c++ {
			if a.conflicts[c][ci] {
				conflict = true
			} else if v := a.firsts[c][ci]; v >= 0 {
				if first >= 0 && first != v {
					conflict = true
				}
				first = v
			}
		}
		if !conflict {
			continue // one shared value on dim covers the candidate
		}
		copy(vals[:a.dim], cand.Values[:a.dim])
		vals[a.dim] = core.Star
		copy(vals[a.dim+1:], cand.Values[a.dim:])
		out.Emit(vals, cand.Count, cand.Aux)
	}
}

// buildMaskGroups groups candidates by their fixed-dimension pattern and
// indexes each group by its packed fixed values.
func buildMaskGroups(projDims []int, candidates []core.Cell) []*maskGroup {
	byMask := make(map[uint64]*maskGroup)
	var buf []byte
	for ci, cand := range candidates {
		var mask uint64
		for i, v := range cand.Values {
			if v != core.Star {
				mask |= 1 << uint(i)
			}
		}
		g := byMask[mask]
		if g == nil {
			g = &maskGroup{index: make(map[string]int)}
			for i, v := range cand.Values {
				if v != core.Star {
					g.dims = append(g.dims, projDims[i])
				}
			}
			byMask[mask] = g
		}
		buf = buf[:0]
		for _, v := range cand.Values {
			if v != core.Star {
				buf = core.AppendValue(buf, v)
			}
		}
		g.index[string(buf)] = ci
	}
	groups := make([]*maskGroup, 0, len(byMask))
	for _, g := range byMask {
		groups = append(groups, g)
	}
	return groups
}

// scanAgreement folds tuples [lo, hi) into the per-candidate aggregates.
func scanAgreement(t *table.Table, dim int, groups []*maskGroup, lo, hi int, first []core.Value, conflict []bool) {
	dimCol := t.Cols[dim]
	var buf []byte
	for _, g := range groups {
		for tid := lo; tid < hi; tid++ {
			buf = buf[:0]
			for _, d := range g.dims {
				buf = core.AppendValue(buf, t.Cols[d][tid])
			}
			ci, ok := g.index[string(buf)]
			if !ok {
				continue
			}
			if conflict[ci] {
				continue
			}
			v := dimCol[tid]
			if first[ci] < 0 {
				first[ci] = v
			} else if first[ci] != v {
				conflict[ci] = true
			}
		}
	}
}
