// Package refresh keeps a served closed cube fresh as its relation mutates:
// appended tuples, delete tombstones, and update pairs buffer in a
// write-ahead delta log and, on trigger (row threshold, timer, or explicit
// flush), a refresh re-aggregates only the cells some delta row falls in,
// merges them with the untouched ones into a fresh cubestore.Store, and
// publishes the result with an atomic pointer swap — in-flight queries finish
// on the old store while new queries see the new one.
//
// Correctness rests on one fact: closedness is an algebraic measure (paper
// Sec. 3). A cell no delta row matches on its fixed dimensions keeps its
// tuple set, hence its count, measure and closedness, and is retained; the
// ones a delta row does match are re-aggregated from the edited relation by
// one pass over their tuples (deltaPass, slice.go), whose cells stream into a
// cubestore.Builder; and cubestore.MergeDelta splices them between the
// retained ones. The iceberg residual follows the same rule at full width.
// Nothing here depends on whether the relation grew or shrank, so the same
// pass serves appends, deletes, and updates, including partitions that shrink
// to empty and a relation whose every tuple is deleted (every old cell is
// then matched by a tombstone). The closed iceberg cube of a relation is
// unique, so the refreshed store is canonical: byte-identical to a
// from-scratch materialization of the edited relation, by whichever engine.
package refresh

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccubing/internal/core"
	"ccubing/internal/cubestore"
	"ccubing/internal/engine"
	"ccubing/internal/table"
)

// partitionDim is the partition dimension: the shard topology hashes it, and
// Stats counts the partitions (its values) a refresh touched.
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
	// PartitionsRecomputed and PartitionsTotal count the distinct
	// partition-dimension values the delta carries and the relation holds.
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
	ecfg   engine.Config
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
// and must not be mutated by the caller afterwards. ecfg is the
// configuration store was built with: it must be closed (the serving store
// holds the closed cube), and its minsup and measure kind are what refreshes
// recompute cells and residual rows at. The delta log lives in memory until
// EnableWAL attaches a file.
func NewManager(base *table.Table, store *cubestore.Store, dicts []*table.Dict, ecfg engine.Config) (*Manager, error) {
	if base == nil || store == nil {
		return nil, fmt.Errorf("refresh: nil relation or store")
	}
	if base.NumDims() != store.NumDims() {
		return nil, fmt.Errorf("refresh: relation has %d dimensions, store %d", base.NumDims(), store.NumDims())
	}
	if !ecfg.Closed {
		return nil, fmt.Errorf("refresh: a closed-mode configuration is required")
	}
	m := &Manager{
		ecfg:   ecfg,
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
// into the relation, re-aggregates the cells the delta falls in, merges them
// with the untouched cells, and publishes the new snapshot. An empty delta is
// a no-op that keeps the current generation. On error the delta is returned
// to the buffer for a later retry and the published snapshot is unchanged.
func (m *Manager) Flush() (Stats, error) {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	start := time.Now()

	rows, aux, kinds, frozen := m.delta.steal()
	cur := m.snap.Load()
	if len(rows) == 0 {
		return Stats{Generation: cur.Generation}, nil
	}

	newBase, nAppended, nDeleted, err := applyDelta(m.base, rows, aux, kinds, frozen)
	fold := time.Since(start)
	if err == nil {
		var newStore *cubestore.Store
		var rebuilt int64
		newStore, rebuilt, err = m.rebuild(cur.Store, newBase, rows)
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
				PartitionsRecomputed: distinctValues(rows[partitionDim:], m.nd, newBase.Cards[partitionDim]),
				PartitionsTotal:      distinctValues(newBase.Cols[partitionDim], 1, newBase.Cards[partitionDim]),
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
// and the delta rows that edited it (nd values each): one deltaPass
// re-aggregates every cell a delta row matches into a builder, and MergeDelta
// splices those cells between the old store's unmatched ones.
//
// The iceberg residual follows the store: when the old store carries one, the
// pass also recomputes the residual rows at the delta's full keys. When the
// old store lacks one — it was built without SetResidual — the refreshed
// store stays residual-free, so it never claims an exactness it cannot prove.
func (m *Manager) rebuild(old *cubestore.Store, t *table.Table, delta []core.Value) (*cubestore.Store, int64, error) {
	start := time.Now()
	fresh := &cubestore.BuilderSink{B: cubestore.NewBuilder(m.nd, old.HasAux())}
	pass := newDeltaPass(t, delta, m.ecfg, old.HasResidual())
	pass.run(fresh)
	freshRes := pass.residual()
	passTime := time.Since(start)
	start = time.Now()
	s, err := old.MergeDelta(delta, fresh.B, freshRes)
	if err != nil {
		return nil, 0, fmt.Errorf("refresh: %w", err)
	}
	// A store that merged is a store Flush publishes.
	phaseDelta.Observe(passTime)
	phaseMerge.Observe(time.Since(start))
	deltaVisits.Add(pass.visits)
	return s, fresh.Cells, nil
}

// distinctValues counts the distinct values among vals[0], vals[stride],
// vals[2·stride], ..., all of them below card.
func distinctValues(vals []core.Value, stride, card int) int {
	seen := make([]bool, card)
	n := 0
	for i := 0; i < len(vals); i += stride {
		if v := vals[i]; !seen[v] {
			seen[v] = true
			n++
		}
	}
	return n
}
