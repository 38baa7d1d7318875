// Package refresh keeps a served closed cube fresh as its relation mutates:
// appended tuples, delete tombstones, and update pairs buffer in a
// write-ahead delta log and, on trigger (row threshold, timer, or explicit
// flush), a refresh recomputes only the partitions of the leading
// (partition) dimension whose values appear in the delta and the wildcard
// cells some delta row falls in, merges the
// rebuilt closed-cell groups with the untouched ones into a fresh
// cubestore.Store, and publishes the result with an atomic pointer swap —
// in-flight queries finish on the old store while new queries see the new
// one.
//
// Correctness rests on two facts. The partition invariant internal/parallel
// is built on (paper Sec. 6.3): a closed cell fixing the partition dimension
// aggregates tuples of exactly one partition, so cells of untouched
// partitions are byte-identical before and after the edit and can be
// retained, and cells of touched partitions are recomputed from those
// partitions' (possibly smaller) tuple sets by the shard jobs of
// parallel.RunSub, the decomposition a Workers > 1 materialization runs. And
// closedness is an algebraic measure (paper Sec. 3): a cell with a wildcard
// on the partition dimension that no delta row matches keeps its tuple set,
// hence its count, measure and closedness, and is retained too; the ones a
// delta row does match are re-aggregated from the edited relation by one
// pass over their tuples (deltaPass, slice.go), which runs as RunSub's
// wildcard job beside the shard jobs. The cells stream into a
// cubestore.Builder exactly as a build's do, and MergePartitions splices
// them between the retained ones. Nothing here depends on whether the
// relation grew or shrank, so the same machinery serves appends, deletes, and
// updates, including partitions that shrink to empty (their cells simply
// vanish from the merge). The refreshed store is canonical: byte-identical to
// a from-scratch materialization of the edited relation.
package refresh

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccubing/internal/core"
	"ccubing/internal/cubestore"
	"ccubing/internal/engine"
	"ccubing/internal/parallel"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Config parameterizes a Manager.
type Config struct {
	// Eng and ECfg run the recomputation; ECfg.Closed must be set (the
	// serving store holds the closed cube). ECfg.Measure is the kind the
	// store's aux values (cells and residual rows alike) aggregate with.
	Eng  *engine.Engine
	ECfg engine.Config
	// Workers bounds the recompute goroutines; values below 1 run
	// sequentially.
	Workers int
}

// partitionDim is the partition dimension: refreshes recompute only the
// partitions (values of the leading dimension) the delta touches. The shard
// topology hashes the same dimension.
const partitionDim = 0

// cardSlack bounds how far a coded append may grow a dimension's domain
// beyond the published cardinality. Without a bound, one hostile row fixing a
// value near MaxInt32 would force cardinality-sized allocations on refresh.
const cardSlack = 4096

// Snapshot is one published serving state: an immutable store, the frozen
// dictionaries that decode it (nil for coded relations), and the metadata
// that identifies it. Readers obtain it from Manager.Snapshot with one
// atomic load; every field is immutable from then on.
type Snapshot struct {
	Store *cubestore.Store
	Dicts []*table.Dict
	// Generation counts published refreshes; it increases by exactly one per
	// refresh that folded at least one row.
	Generation uint64
	// Rows is the number of tuples of the relation this snapshot serves.
	Rows int64
}

// Stats describes one refresh.
type Stats struct {
	// Generation is the generation the refresh published (unchanged when the
	// delta was empty).
	Generation uint64
	// Appended is the number of delta rows added to the relation (an update
	// contributes its replacement tuple here).
	Appended int
	// Deleted is the number of tombstones folded in: tuples removed from the
	// relation (an update contributes its old tuple here).
	Deleted int
	// PartitionsRecomputed and PartitionsTotal count the touched and total
	// distinct partition-dimension values; their ratio is the work saved
	// versus a full rebuild.
	PartitionsRecomputed int
	PartitionsTotal      int
	// CellsRetained and CellsRebuilt split the published store's cells into
	// those copied from the previous store and those recomputed.
	CellsRetained int64
	CellsRebuilt  int64
	// Elapsed is the wall-clock refresh time.
	Elapsed time.Duration
}

// Metrics is the cumulative observability view served by /v1/stats.
type Metrics struct {
	Generation uint64
	Rows       int64
	Backlog    int
	Refreshes  int64
	Last       Stats
	LastError  string
}

// Manager owns the live-refresh state of one cube: the current relation, the
// delta log, and the published snapshot. Mutations (Apply) and refreshes
// (Flush) may run concurrently with any number of snapshot readers; mutations
// are serialized with each other, refreshes with each other. A delta arriving
// while a refresh is computing stays buffered for the next refresh.
//
// flushMu is the only lock held across calls; the staged delta's own lock is
// a leaf (see staged), so the two cannot be taken in the wrong order.
type Manager struct {
	cfg    Config
	nd     int
	hasAux bool // the relation carries a measure column

	delta *staged

	flushMu sync.Mutex // serializes refreshes and tombstone validation; guards base
	base    *table.Table
	// baseCounts is the lazily built tuple multiset of base (guarded by
	// flushMu, invalidated when a refresh replaces base): Apply checks
	// tombstones against it plus the pending delta.
	baseCounts map[string]int

	snap atomic.Pointer[Snapshot]

	statsMu   sync.Mutex
	last      Stats
	refreshes int64
	lastErr   string

	timerMu sync.Mutex
	stop    chan struct{}
	wg      sync.WaitGroup
}

// NewManager wraps a materialized store and its source relation. base is
// retained (appends never mutate it — refreshes copy); dicts, when the
// relation is labeled, become the published snapshot's frozen dictionaries
// and must not be mutated by the caller afterwards. The delta log lives in
// memory until EnableWAL attaches a file.
func NewManager(base *table.Table, store *cubestore.Store, dicts []*table.Dict, cfg Config) (*Manager, error) {
	if base == nil || store == nil {
		return nil, fmt.Errorf("refresh: nil relation or store")
	}
	if base.NumDims() != store.NumDims() {
		return nil, fmt.Errorf("refresh: relation has %d dimensions, store %d", base.NumDims(), store.NumDims())
	}
	if cfg.Eng == nil || !cfg.ECfg.Closed {
		return nil, fmt.Errorf("refresh: a closed-mode engine is required")
	}
	m := &Manager{
		cfg:    cfg,
		nd:     base.NumDims(),
		hasAux: base.Aux != nil,
		base:   base,
		delta:  newStaged(base.NumDims(), base.Aux != nil, base.Cards, dicts),
	}
	m.snap.Store(&Snapshot{
		Store: store,
		Dicts: dicts,
		Rows:  int64(base.NumTuples()),
	})
	return m, nil
}

// Snapshot returns the current serving state with one atomic load.
func (m *Manager) Snapshot() *Snapshot { return m.snap.Load() }

// EnableWAL attaches a write-ahead log file, replaying any pending rows it
// holds, so pending (unrefreshed) edits survive a restart over the same base
// relation. Rows a refresh has folded in leave the WAL — durability of the
// refreshed store is the snapshot's job (save one after refreshing), not the
// log's. A file that is rejected is closed again, byte-for-byte untouched.
func (m *Manager) EnableWAL(path string) error {
	w, err := OpenFileWAL(path)
	if err != nil {
		return err
	}
	if err := m.delta.attach(w); err != nil {
		w.Close() // the attach failure is the error worth reporting
		return err
	}
	return nil
}

// RowThreshold returns the configured auto-refresh row threshold (0 = off).
func (m *Manager) RowThreshold() int { return m.delta.threshold() }

// Backlog returns the number of buffered delta rows awaiting a refresh.
func (m *Manager) Backlog() int { return m.delta.backlog() }

// AutoRefresh configures the refresh triggers: rows > 0 flushes
// synchronously inside the Apply that reaches that backlog; interval > 0
// starts a background timer flushing on that period (stop it with Close).
// Either may be zero to disable that trigger.
func (m *Manager) AutoRefresh(rows int, interval time.Duration) error {
	if rows < 0 {
		return fmt.Errorf("refresh: negative row threshold %d", rows)
	}
	m.delta.setThreshold(rows)
	if interval <= 0 {
		return nil
	}
	m.timerMu.Lock()
	defer m.timerMu.Unlock()
	if m.stop != nil {
		return fmt.Errorf("refresh: timer already running")
	}
	stop := make(chan struct{})
	m.stop = stop
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if _, err := m.Flush(); err != nil {
					m.statsMu.Lock()
					m.lastErr = err.Error()
					m.statsMu.Unlock()
				}
			}
		}
	}()
	return nil
}

// Close stops the timer goroutine (flushing nothing), syncs any buffered
// WAL records to durable storage, and closes the WAL.
func (m *Manager) Close() error {
	m.timerMu.Lock()
	if m.stop != nil {
		close(m.stop)
		m.stop = nil
	}
	m.timerMu.Unlock()
	m.wg.Wait()
	return m.delta.close()
}

// Metrics returns the cumulative refresh counters.
func (m *Manager) Metrics() Metrics {
	s := m.Snapshot()
	backlog := m.Backlog()
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return Metrics{
		Generation: s.Generation,
		Rows:       s.Rows,
		Backlog:    backlog,
		Refreshes:  m.refreshes,
		Last:       m.last,
		LastError:  m.lastErr,
	}
}

// Flush folds the buffered delta — appends, tombstones, and update pairs —
// into the relation, recomputes the touched partitions and the wildcard cells
// the delta falls in, merges with the untouched cells, and publishes the new
// snapshot. An
// empty delta is a no-op that keeps the current generation. On error the
// delta is returned to the buffer for a later retry and the published
// snapshot is unchanged.
func (m *Manager) Flush() (Stats, error) {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	start := time.Now()

	rows, aux, kinds, frozen := m.delta.steal()
	cur := m.snap.Load()
	n := len(rows) / m.nd
	if n == 0 {
		return Stats{Generation: cur.Generation}, nil
	}

	newBase, nAppended, nDeleted, err := applyDelta(m.base, rows, aux, kinds, frozen)
	fold := time.Since(start)
	if err == nil {
		// Dense over the partition dimension's values: it is consulted once per
		// tuple, per retained store row and per residual row.
		affected := make([]bool, newBase.Cards[partitionDim])
		touched := 0
		for i := 0; i < n; i++ {
			if v := rows[i*m.nd+partitionDim]; !affected[v] {
				affected[v] = true
				touched++
			}
		}
		var newStore *cubestore.Store
		var rebuilt int64
		newStore, rebuilt, err = m.rebuild(cur.Store, newBase, rows, affected)
		if err == nil {
			publish := time.Now()
			next := &Snapshot{
				Store:      newStore,
				Dicts:      frozen,
				Generation: cur.Generation + 1,
				Rows:       int64(newBase.NumTuples()),
			}
			m.snap.Store(next)
			m.base = newBase
			m.baseCounts = nil // delete validation rebuilds over the new base

			werr := m.delta.published(newBase.Cards)

			st := Stats{
				Generation:           next.Generation,
				Appended:             nAppended,
				Deleted:              nDeleted,
				PartitionsRecomputed: touched,
				PartitionsTotal:      distinctValues(newBase, partitionDim),
				CellsRetained:        newStore.NumCells() - rebuilt,
				CellsRebuilt:         rebuilt,
				Elapsed:              time.Since(start),
			}
			phaseFold.Observe(fold)
			phasePublish.Observe(time.Since(publish))
			return m.finishFlush(st, werr)
		}
	}
	m.delta.unsteal(rows, aux, kinds)
	return Stats{}, err
}

// finishFlush records the published refresh's stats and surfaces a WAL
// rewrite failure without unpublishing.
func (m *Manager) finishFlush(st Stats, werr error) (Stats, error) {
	refreshSeconds.Observe(st.Elapsed)
	m.statsMu.Lock()
	m.last = st
	m.refreshes++
	m.lastErr = ""
	if werr != nil {
		// The refresh published, but the on-disk log no longer matches the
		// buffer; keep that visible in Metrics, not just in this one return.
		m.lastErr = werr.Error()
	}
	m.statsMu.Unlock()
	if werr != nil {
		return st, fmt.Errorf("refresh: published generation %d but backend persistence failed: %w", st.Generation, werr)
	}
	return st, nil
}

// rebuild computes the new store for the edited relation t from the old one
// and the delta rows that edited it (nd values each; affected marks their
// partition-dimension values). The touched partitions' cells are recomputed
// by the shared decomposition over those partitions' tuples, and the wildcard
// cells the delta falls in by deltaPass, a pool job beside the shard jobs;
// both stream into a builder whose groups MergePartitions splices between
// the old store's untouched partitions and the wildcard cells no delta row
// matches. A relation that cannot be decomposed (fewer than two dimensions)
// replaces every cell instead, and one whose every tuple was deleted has no
// cells at all — the engines assume at least one tuple, so nothing is run
// for it.
//
// The iceberg residual follows the store: when the old store carries one, the
// replacement partitions' residual is recomputed from their tuples and merged
// group-style. When the old store lacks one — it was built without
// SetResidual — the refreshed store stays residual-free, so it never claims
// an exactness it cannot prove.
func (m *Manager) rebuild(old *cubestore.Store, t *table.Table, delta []core.Value, affected []bool) (*cubestore.Store, int64, error) {
	start := time.Now()
	replaced := func(v core.Value) bool { return affected[v] }
	sub := t
	var wildcard func(sink.Sink) error
	var passTime time.Duration
	var visits int64
	if t.NumTuples() == 0 || m.nd < 2 {
		// RunSub cubes the whole relation: every cell is replaced, and a nil
		// delta tells MergePartitions the wildcard slice is whole too.
		replaced, delta = func(core.Value) bool { return true }, nil
	} else {
		// Sub-relation: every tuple of a touched partition. Cells fixing the
		// partition dimension to a touched value aggregate only these tuples,
		// so cubing the sub-relation yields their globally correct counts and
		// closedness.
		var tids []core.TID
		for tid, v := range t.Cols[partitionDim] {
			if affected[v] {
				tids = append(tids, core.TID(tid))
			}
		}
		sub = t.Subset(tids)
		pass := newDeltaPass(t, delta, m.cfg.ECfg)
		wildcard = func(out sink.Sink) error {
			start := time.Now()
			defer func() { passTime, visits = time.Since(start), pass.visits }()
			return pass.run(out)
		}
	}
	selected := time.Since(start)
	fresh := &cubestore.BuilderSink{B: cubestore.NewBuilder(m.nd, old.HasAux())}
	var pst parallel.Stats
	if t.NumTuples() > 0 {
		var err error
		pcfg := parallel.Config{Workers: m.cfg.Workers, Dim: partitionDim}
		if pst, err = parallel.RunSub(t, sub, m.cfg.Eng, m.cfg.ECfg, pcfg, wildcard, fresh); err != nil {
			return nil, 0, fmt.Errorf("refresh: %w", err)
		}
	}
	start = time.Now()
	var freshRes *cubestore.Residual
	if old.HasResidual() {
		// Residual rows fix every dimension, so their multiplicities within the
		// touched partitions' tuples are already globally correct.
		freshRes = cubestore.ComputeResidual(sub.Cols, sub.Aux, m.cfg.ECfg.MinSup, m.cfg.ECfg.Measure)
	}
	s, err := old.MergePartitions(partitionDim, replaced, delta, fresh.B, freshRes)
	if err == nil {
		// A store that merged is a store Flush publishes.
		phaseShard.Observe(selected + pst.Split + pst.ShardJobs)
		phaseDelta.Observe(passTime)
		phaseMerge.Observe(time.Since(start))
		deltaVisits.Add(visits)
	}
	return s, fresh.Cells, err
}

// distinctValues counts the distinct values of one dimension.
func distinctValues(t *table.Table, dim int) int {
	seen := make([]bool, t.Cards[dim])
	n := 0
	for _, v := range t.Cols[dim] {
		if !seen[v] {
			seen[v] = true
			n++
		}
	}
	return n
}
