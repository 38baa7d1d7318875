// Package refresh keeps a served closed cube fresh as its relation mutates:
// appended tuples, delete tombstones, and update pairs buffer in a
// write-ahead delta log and, on trigger (row threshold, timer, or explicit
// flush), a refresh recomputes only the partitions of the leading
// (partition) dimension whose values appear in the delta, merges the
// rebuilt closed-cell groups with the untouched ones into a fresh
// cubestore.Store, and publishes the result with an atomic pointer swap —
// in-flight queries finish on the old store while new queries see the new
// one.
//
// Correctness rests on the partition invariant shared with internal/parallel
// and internal/partition (paper Sec. 6.3): a closed cell fixing the
// partition dimension aggregates tuples of exactly one partition, so cells
// of untouched partitions are byte-identical before and after the edit and
// can be retained; cells of touched partitions are recomputed from those
// partitions' (possibly smaller) tuple sets; and cells with a wildcard on
// the partition dimension — which any edit may change — are rebuilt from
// the projection cube plus the aggregation-based agreement check of
// parallel.ClosedSurvivors. The check is direction-agnostic: it knows
// nothing about whether the relation grew or shrank, so the same machinery
// serves appends, deletes, and updates, including partitions that shrink to
// empty (their cells simply vanish from the merge). The refreshed store is
// canonical: byte-identical to a from-scratch materialization of the edited
// relation.
package refresh

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	// Dim is the partition dimension; refreshes recompute only the partitions
	// (values of this dimension) the delta touches. Defaults to 0, the
	// leading dimension.
	Dim int
	// Eng and ECfg run the recomputation; ECfg.Closed must be set (the
	// serving store holds the closed cube). ECfg.Measure is the kind the
	// store's aux values (cells and residual rows alike) aggregate with.
	Eng  engine.Engine
	ECfg engine.Config
	// Workers bounds the recompute goroutines; values below 1 run
	// sequentially.
	Workers int
	// Shards bounds how many shards the touched partitions split into;
	// defaults to 4×Workers, capped by the number of touched partitions.
	Shards int
	// Generation seeds the published snapshot's generation counter.
	Generation uint64
	// WAL, when non-empty, persists pending (unrefreshed) appends to this
	// file; a new Manager over the same base relation replays them. Rows a
	// refresh has folded in leave the WAL — durability of the refreshed
	// store is the snapshot's job (save one after refreshing), not the
	// log's. Ignored when Backend is set.
	WAL string
	// Backend supplies the durable delta log and receives published
	// snapshots. Nil defaults to LocalBackend{Path: WAL}: a WAL file on
	// local disk and no publication step.
	Backend Backend
	// CardSlack bounds how far a coded append may grow a dimension's domain
	// beyond the published cardinality (defaults to 4096 when zero). Without
	// a bound, one hostile row fixing a value near MaxInt32 would force
	// cardinality-sized allocations on refresh.
	CardSlack int
}

// defaultCardSlack is the Config.CardSlack default.
const defaultCardSlack = 4096

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
// delta log, and the published snapshot. Appends and refreshes may run
// concurrently with any number of snapshot readers; appends are serialized
// with each other, refreshes with each other. A delta arriving while a
// refresh is computing stays buffered for the next refresh.
//
// Lock order: a goroutine that needs both locks takes flushMu first
// (Fold/Flush do); appendMu is the innermost lock and nothing blocks under it.
//
//ccubing:lockorder flushMu < appendMu
type Manager struct {
	cfg     Config
	nd      int
	hasAux  bool    // the relation carries a measure column
	backend Backend // never nil; set once in NewManager

	appendMu sync.Mutex // guards log, dicts, cards, autoRows
	log      *deltaLog
	dicts    []*table.Dict // staging dictionaries, grown by labeled appends
	cards    []int         // published per-dimension cardinalities (append validation)
	autoRows int

	flushMu sync.Mutex // serializes refreshes and delete validation; guards base
	base    *table.Table
	// baseCounts is the lazily built tuple multiset of base (guarded by
	// flushMu, invalidated when a refresh replaces base): delete validation
	// checks tombstones against it plus the pending delta.
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
// and must not be mutated by the caller afterwards. When cfg.WAL names a
// file with pending appends, they are replayed into the delta log.
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
	if cfg.Dim < 0 || cfg.Dim >= base.NumDims() {
		return nil, fmt.Errorf("refresh: partition dimension %d out of range", cfg.Dim)
	}
	if cfg.CardSlack <= 0 {
		cfg.CardSlack = defaultCardSlack
	}
	m := &Manager{
		cfg:    cfg,
		nd:     base.NumDims(),
		hasAux: base.Aux != nil,
		base:   base,
		cards:  append([]int(nil), base.Cards...),
	}
	m.log = newDeltaLog(m.nd, m.hasAux)
	m.backend = cfg.Backend
	if m.backend == nil {
		m.backend = LocalBackend{Path: cfg.WAL}
	}
	if dicts != nil {
		m.dicts = make([]*table.Dict, len(dicts))
		for d, dict := range dicts {
			m.dicts[d] = table.DictFromNames(dict.Names())
		}
	}
	w, err := m.backend.OpenWAL()
	if err != nil {
		return nil, err
	}
	if w != nil {
		if err := m.attach(w); err != nil {
			return nil, err
		}
	}
	m.snap.Store(&Snapshot{
		Store:      store,
		Dicts:      dicts,
		Generation: cfg.Generation,
		Rows:       int64(base.NumTuples()),
	})
	return m, nil
}

// Snapshot returns the current serving state with one atomic load.
func (m *Manager) Snapshot() *Snapshot { return m.snap.Load() }

// attach hands the opened write-ahead log to the delta log (replaying
// pending records), then persists any rows that were buffered before the
// log was attached. Caller must not hold appendMu.
func (m *Manager) attach(w WAL) error {
	m.appendMu.Lock()
	defer m.appendMu.Unlock()
	if m.log.w != nil {
		return fmt.Errorf("refresh: wal already attached")
	}
	if _, err := m.log.attach(w); err != nil {
		return err
	}
	// Replayed labeled rows must decode with the dictionaries we have; codes
	// the staging dictionaries have never assigned would serve phantom
	// labels.
	if m.dicts != nil {
		for i := 0; i < m.log.rows(); i++ {
			for d := 0; d < m.nd; d++ {
				if v := m.log.vals[i*m.nd+d]; int(v) >= m.dicts[d].Len() {
					return fmt.Errorf("refresh: wal row %d: code %d unknown to dimension %d's dictionary (replay needs the original base relation)", i, v, d)
				}
			}
		}
	}
	// Rows appended before the WAL existed are in memory only; rewrite the
	// file so it holds the full pending delta.
	return m.log.rewrite()
}

// EnableWAL attaches a local-disk write-ahead log after construction (the
// facade's AutoRefresh path), replaying any pending rows it holds.
func (m *Manager) EnableWAL(path string) error {
	w, err := OpenFileWAL(path)
	if err != nil {
		return err
	}
	return m.attach(w)
}

// RowThreshold returns the configured auto-refresh row threshold (0 = off).
func (m *Manager) RowThreshold() int {
	m.appendMu.Lock()
	defer m.appendMu.Unlock()
	return m.autoRows
}

// Backlog returns the number of buffered delta rows awaiting a refresh.
func (m *Manager) Backlog() int {
	m.appendMu.Lock()
	defer m.appendMu.Unlock()
	return m.log.rows()
}

// Append buffers coded rows. For labeled relations every value must be a
// code the dictionaries know (append by label instead to introduce new
// ones); for coded relations values may exceed the published cardinality by
// at most CardSlack — new values grow the dimension's domain on refresh,
// the bound keeps a hostile value from forcing cardinality-sized
// allocations. aux carries one measure value per row iff the relation has a
// measure column. It returns the number of rows appended and whether the
// append triggered a synchronous refresh (the configured row threshold was
// reached).
func (m *Manager) Append(rows [][]core.Value, aux []float64) (int, bool, error) {
	if err := m.validateAux(len(rows), aux); err != nil {
		return 0, false, err
	}
	m.appendMu.Lock()
	flat := make([]core.Value, 0, len(rows)*m.nd)
	for i, row := range rows {
		if err := m.validateRow(i, row, false); err != nil {
			m.appendMu.Unlock()
			return 0, false, err
		}
		flat = append(flat, row...)
	}
	return m.appendLocked(flat, aux)
}

// AppendLabeled buffers labeled rows, dictionary-coding each field; unseen
// labels extend the staging dictionaries and are published with the next
// refresh. The whole batch is validated before any label is coded, so a
// rejected batch leaves no phantom labels behind.
func (m *Manager) AppendLabeled(rows [][]string, aux []float64) (int, bool, error) {
	if err := m.validateAux(len(rows), aux); err != nil {
		return 0, false, err
	}
	m.appendMu.Lock()
	if m.dicts == nil {
		m.appendMu.Unlock()
		return 0, false, fmt.Errorf("refresh: relation has no dictionaries; append coded values")
	}
	for i, row := range rows {
		if len(row) != m.nd {
			m.appendMu.Unlock()
			return 0, false, fmt.Errorf("refresh: row %d has %d fields, want %d", i, len(row), m.nd)
		}
	}
	flat := make([]core.Value, 0, len(rows)*m.nd)
	for _, row := range rows {
		for d, s := range row {
			flat = append(flat, m.dicts[d].Code(s))
		}
	}
	return m.appendLocked(flat, aux)
}

func (m *Manager) validateAux(rows int, aux []float64) error {
	if m.hasAux && len(aux) != rows {
		return fmt.Errorf("refresh: relation has a measure column; %d aux values for %d rows", len(aux), rows)
	}
	if !m.hasAux && aux != nil {
		return fmt.Errorf("refresh: relation has no measure column; aux values not accepted")
	}
	return nil
}

// appendLocked finishes an append: the caller holds appendMu, which is
// released here. The row-threshold trigger flushes synchronously, outside
// the append lock, so appends on other goroutines keep flowing into the next
// delta while the refresh computes.
//
//ccubing:releases appendMu
func (m *Manager) appendLocked(flat []core.Value, aux []float64) (int, bool, error) {
	n := len(flat) / m.nd
	if err := m.log.append(flat, aux, nil); err != nil {
		m.appendMu.Unlock()
		return 0, false, err
	}
	trigger := m.autoRows > 0 && m.log.rows() >= m.autoRows
	m.appendMu.Unlock()
	if !trigger {
		return n, false, nil
	}
	if _, err := m.Flush(); err != nil {
		return n, false, fmt.Errorf("refresh: threshold refresh: %w", err)
	}
	return n, true, nil
}

// rowKey packs one tuple into a multiset key. On measure relations the
// measure value participates: two tuples agreeing on every dimension but
// carrying different measures are distinct occurrences, and a tombstone
// names exactly which one leaves.
func rowKey(buf []byte, vals []core.Value, aux float64, hasAux bool) string {
	buf = buf[:0]
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	if hasAux {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(aux))
	}
	return string(buf)
}

// baseCountsLocked returns the tuple multiset of the base relation, building
// it on first use after each refresh. Caller holds flushMu.
func (m *Manager) baseCountsLocked() map[string]int {
	if m.baseCounts != nil {
		return m.baseCounts
	}
	counts := make(map[string]int, m.base.NumTuples())
	buf := make([]byte, 0, 4*m.nd+8)
	row := make([]core.Value, m.nd)
	for tid := 0; tid < m.base.NumTuples(); tid++ {
		var aux float64
		if m.hasAux {
			aux = m.base.Aux[tid]
		}
		counts[rowKey(buf, m.base.Row(core.TID(tid), row), aux, m.hasAux)]++
	}
	m.baseCounts = counts
	return counts
}

// deltaOp is one validated delta row awaiting enqueue: its flattened
// position is implicit in order; kind discriminates tombstones from adds.
type deltaOp struct {
	key  string
	kind byte
}

// checkAvailable verifies that every tombstone in ops (processed in order)
// targets a tuple present at that point: present in the base relation, plus
// the net effect of the already-buffered delta, plus earlier ops of this
// batch. Caller holds flushMu and appendMu. Returns the index of the first
// unsatisfiable tombstone, or -1.
func (m *Manager) checkAvailable(ops []deltaOp) int {
	base := m.baseCountsLocked()
	// Net effect of the pending log, restricted to the keys this batch
	// touches (the log is a bounded backlog; one linear scan).
	want := make(map[string]bool, len(ops))
	for _, op := range ops {
		if op.kind == opDelete || op.kind == opUpdateOld {
			want[op.key] = true
		}
	}
	net := make(map[string]int, len(want))
	buf := make([]byte, 0, 4*m.nd+8)
	for i := 0; i < m.log.rows(); i++ {
		var aux float64
		if m.hasAux {
			aux = m.log.aux[i]
		}
		k := rowKey(buf, m.log.vals[i*m.nd:(i+1)*m.nd], aux, m.hasAux)
		if !want[k] {
			continue
		}
		switch m.log.kinds[i] {
		case opAppend, opUpdateNew:
			net[k]++
		case opDelete, opUpdateOld:
			net[k]--
		}
	}
	for i, op := range ops {
		switch op.kind {
		case opAppend, opUpdateNew:
			if want[op.key] {
				net[op.key]++
			}
		case opDelete, opUpdateOld:
			if base[op.key]+net[op.key] <= 0 {
				return i
			}
			net[op.key]--
		}
	}
	return -1
}

// validateRow checks one coded row's shape and values against the append
// contract; tombstones skip the cardinality-growth bound (the tuple must
// already exist, so its values cannot grow a domain). Caller holds
// appendMu: the dictionaries and cardinalities it reads move under it.
func (m *Manager) validateRow(i int, row []core.Value, tombstone bool) error {
	if len(row) != m.nd {
		return fmt.Errorf("refresh: row %d has %d values, want %d", i, len(row), m.nd)
	}
	for d, v := range row {
		if v < 0 {
			return fmt.Errorf("refresh: row %d dimension %d: negative value %d", i, d, v)
		}
		if m.dicts != nil && int(v) >= m.dicts[d].Len() {
			if tombstone {
				return fmt.Errorf("refresh: row %d dimension %d: code %d unknown to the dictionary; no such tuple to delete", i, d, v)
			}
			return fmt.Errorf("refresh: row %d dimension %d: code %d unknown to the dictionary (append by label to add it)", i, d, v)
		}
		if m.dicts == nil && !tombstone && int64(v) >= int64(m.cards[d])+int64(m.cfg.CardSlack) {
			return fmt.Errorf("refresh: row %d dimension %d: value %d exceeds cardinality %d by more than the growth bound %d",
				i, d, v, m.cards[d], m.cfg.CardSlack)
		}
	}
	return nil
}

// tombstoneBatch is one resolved delete/update batch awaiting enqueue:
// parallel flat/aux/kinds (update pairs adjacent), plus an optional commit
// hook that runs — still under the locks — once availability validation
// passes (UpdateLabeled publishes its new labels there, so a rejected batch
// leaves no phantom labels).
type tombstoneBatch struct {
	flat   []core.Value
	aux    []float64
	kinds  []byte
	commit func()
}

// enqueueTombstones validates and buffers a batch that contains tombstones
// (deletes, or update pairs). It takes flushMu (delete validation reads the
// base relation) then appendMu, calls build to resolve the batch under both
// locks, checks every tombstone against base + pending delta, and appends to
// the log; the threshold-triggered refresh runs after both locks are
// released. Returns the number of delta rows buffered (an update pair counts
// as two).
func (m *Manager) enqueueTombstones(build func() (tombstoneBatch, error)) (int, bool, error) {
	m.flushMu.Lock()
	m.appendMu.Lock()
	batch, err := build()
	if err != nil {
		m.appendMu.Unlock()
		m.flushMu.Unlock()
		return 0, false, err
	}
	n := len(batch.kinds)
	ops := make([]deltaOp, n)
	buf := make([]byte, 0, 4*m.nd+8)
	for i := 0; i < n; i++ {
		var a float64
		if m.hasAux {
			a = batch.aux[i]
		}
		ops[i] = deltaOp{key: rowKey(buf, batch.flat[i*m.nd:(i+1)*m.nd], a, m.hasAux), kind: batch.kinds[i]}
	}
	if bad := m.checkAvailable(ops); bad >= 0 {
		m.appendMu.Unlock()
		m.flushMu.Unlock()
		return 0, false, fmt.Errorf("refresh: row %d: tuple %v not present in the relation plus the pending delta; nothing to delete",
			bad, batch.flat[bad*m.nd:(bad+1)*m.nd])
	}
	err = m.log.append(batch.flat, batch.aux, batch.kinds)
	if err == nil && batch.commit != nil {
		// Publish staged state (UpdateLabeled's new labels) only once the
		// batch is durably buffered — a failed WAL write must leave no
		// phantom labels.
		batch.commit()
	}
	trigger := err == nil && m.autoRows > 0 && m.log.rows() >= m.autoRows
	m.appendMu.Unlock()
	m.flushMu.Unlock()
	if err != nil {
		return 0, false, err
	}
	if !trigger {
		return n, false, nil
	}
	if _, err := m.Flush(); err != nil {
		return n, false, fmt.Errorf("refresh: threshold refresh: %w", err)
	}
	return n, true, nil
}

// Delete buffers tombstones for coded tuples: on the next refresh each row
// removes one matching occurrence from the relation (match is by the full
// tuple — and, on measure relations, the measure value, so aux is required
// there exactly as in Append). A tombstone for a tuple not present in the
// base relation plus the pending delta is rejected, and the whole batch with
// it. Returns the number of tombstones buffered and whether the call
// triggered a synchronous refresh.
func (m *Manager) Delete(rows [][]core.Value, aux []float64) (int, bool, error) {
	if err := m.validateAux(len(rows), aux); err != nil {
		return 0, false, err
	}
	return m.enqueueTombstones(func() (tombstoneBatch, error) {
		flat := make([]core.Value, 0, len(rows)*m.nd)
		for i, row := range rows {
			if err := m.validateRow(i, row, true); err != nil {
				return tombstoneBatch{}, err
			}
			flat = append(flat, row...)
		}
		kinds := make([]byte, len(rows))
		for i := range kinds {
			kinds[i] = opDelete
		}
		return tombstoneBatch{flat: flat, aux: aux, kinds: kinds}, nil
	})
}

// DeleteLabeled is Delete by labels. Every label must already be in the
// dictionaries — an unknown label names a tuple that was never in the
// relation, a clear miss rather than a new code.
func (m *Manager) DeleteLabeled(rows [][]string, aux []float64) (int, bool, error) {
	if err := m.validateAux(len(rows), aux); err != nil {
		return 0, false, err
	}
	return m.enqueueTombstones(func() (tombstoneBatch, error) {
		flat, err := m.codeTombstonesLocked(rows)
		if err != nil {
			return tombstoneBatch{}, err
		}
		kinds := make([]byte, len(rows))
		for i := range kinds {
			kinds[i] = opDelete
		}
		return tombstoneBatch{flat: flat, aux: aux, kinds: kinds}, nil
	})
}

// codeTombstonesLocked resolves labeled tombstone rows against the staging
// dictionaries without growing them. Caller holds appendMu.
func (m *Manager) codeTombstonesLocked(rows [][]string) ([]core.Value, error) {
	if m.dicts == nil {
		return nil, fmt.Errorf("refresh: relation has no dictionaries; delete coded values")
	}
	flat := make([]core.Value, 0, len(rows)*m.nd)
	for i, row := range rows {
		if len(row) != m.nd {
			return nil, fmt.Errorf("refresh: row %d has %d fields, want %d", i, len(row), m.nd)
		}
		for d, s := range row {
			code, ok := m.dicts[d].Lookup(s)
			if !ok {
				return nil, fmt.Errorf("refresh: row %d dimension %d: label %q never occurred; no such tuple to delete", i, d, s)
			}
			flat = append(flat, code)
		}
	}
	return flat, nil
}

// Update buffers coded update pairs: on the next refresh each old row's
// occurrence is removed and the paired new row added, atomically (a single
// crash-safe WAL record). Old rows follow the Delete contract (must be
// present), new rows the Append contract (may grow a coded dimension's
// domain within the slack). oldAux/newAux are required iff the relation has
// a measure column. Returns the number of update pairs buffered.
func (m *Manager) Update(oldRows, newRows [][]core.Value, oldAux, newAux []float64) (int, bool, error) {
	if len(oldRows) != len(newRows) {
		return 0, false, fmt.Errorf("refresh: update has %d old rows and %d new rows", len(oldRows), len(newRows))
	}
	if err := m.validateAux(len(oldRows), oldAux); err != nil {
		return 0, false, err
	}
	if err := m.validateAux(len(newRows), newAux); err != nil {
		return 0, false, err
	}
	n, trigger, err := m.enqueueTombstones(func() (tombstoneBatch, error) {
		batch := tombstoneBatch{
			flat:  make([]core.Value, 0, 2*len(oldRows)*m.nd),
			kinds: make([]byte, 0, 2*len(oldRows)),
		}
		if m.hasAux {
			batch.aux = make([]float64, 0, 2*len(oldRows))
		}
		for i := range oldRows {
			if err := m.validateRow(i, oldRows[i], true); err != nil {
				return tombstoneBatch{}, err
			}
			if err := m.validateRow(i, newRows[i], false); err != nil {
				return tombstoneBatch{}, err
			}
			batch.flat = append(batch.flat, oldRows[i]...)
			batch.flat = append(batch.flat, newRows[i]...)
			if m.hasAux {
				batch.aux = append(batch.aux, oldAux[i], newAux[i])
			}
			batch.kinds = append(batch.kinds, opUpdateOld, opUpdateNew)
		}
		return batch, nil
	})
	return n / 2, trigger, err
}

// UpdateLabeled is Update by labels: old rows must use labels the
// dictionaries already know (they name existing tuples); new rows may
// introduce labels, which extend the staging dictionaries only after the
// whole batch validates — a rejected batch leaves no phantom labels. A label
// introduced by one pair cannot be referenced by a later pair's old row in
// the same batch; split such chains across calls.
func (m *Manager) UpdateLabeled(oldRows, newRows [][]string, oldAux, newAux []float64) (int, bool, error) {
	if len(oldRows) != len(newRows) {
		return 0, false, fmt.Errorf("refresh: update has %d old rows and %d new rows", len(oldRows), len(newRows))
	}
	if err := m.validateAux(len(oldRows), oldAux); err != nil {
		return 0, false, err
	}
	if err := m.validateAux(len(newRows), newAux); err != nil {
		return 0, false, err
	}
	n, trigger, err := m.enqueueTombstones(func() (tombstoneBatch, error) {
		oldFlat, err := m.codeTombstonesLocked(oldRows)
		if err != nil {
			return tombstoneBatch{}, err
		}
		for i, row := range newRows {
			if len(row) != m.nd {
				return tombstoneBatch{}, fmt.Errorf("refresh: row %d has %d fields, want %d", i, len(row), m.nd)
			}
		}
		// Code new rows tentatively: unseen labels get the codes they WILL
		// receive (dictionaries grow densely in first-occurrence order), but
		// the dictionaries themselves only grow in the commit hook, after the
		// whole batch validates. Holding appendMu across tentative coding,
		// validation and commit keeps the assignment stable.
		fresh := make([]map[string]core.Value, m.nd)
		freshOrder := make([][]string, m.nd)
		newFlat := make([]core.Value, 0, len(newRows)*m.nd)
		for _, row := range newRows {
			for d, s := range row {
				code, ok := m.dicts[d].Lookup(s)
				if !ok {
					if fresh[d] == nil {
						fresh[d] = make(map[string]core.Value)
					}
					code, ok = fresh[d][s]
					if !ok {
						code = core.Value(m.dicts[d].Len() + len(freshOrder[d]))
						fresh[d][s] = code
						freshOrder[d] = append(freshOrder[d], s)
					}
				}
				newFlat = append(newFlat, code)
			}
		}
		batch := tombstoneBatch{
			flat:  make([]core.Value, 0, 2*len(oldRows)*m.nd),
			kinds: make([]byte, 0, 2*len(oldRows)),
			commit: func() {
				for d, labels := range freshOrder {
					for _, s := range labels {
						m.dicts[d].Code(s)
					}
				}
			},
		}
		if m.hasAux {
			batch.aux = make([]float64, 0, 2*len(oldRows))
		}
		for i := range oldRows {
			batch.flat = append(batch.flat, oldFlat[i*m.nd:(i+1)*m.nd]...)
			batch.flat = append(batch.flat, newFlat[i*m.nd:(i+1)*m.nd]...)
			if m.hasAux {
				batch.aux = append(batch.aux, oldAux[i], newAux[i])
			}
			batch.kinds = append(batch.kinds, opUpdateOld, opUpdateNew)
		}
		return batch, nil
	})
	return n / 2, trigger, err
}

// AutoRefresh configures the refresh triggers: rows > 0 flushes
// synchronously inside the append that reaches that backlog; interval > 0
// starts a background timer flushing on that period (stop it with Close).
// Either may be zero to disable that trigger.
func (m *Manager) AutoRefresh(rows int, interval time.Duration) error {
	if rows < 0 {
		return fmt.Errorf("refresh: negative row threshold %d", rows)
	}
	m.appendMu.Lock()
	m.autoRows = rows
	m.appendMu.Unlock()
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
	m.appendMu.Lock()
	defer m.appendMu.Unlock()
	return errors.Join(m.log.sync(), m.log.close())
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
// into the relation, recomputes the touched partitions and the wildcard
// slice, merges with the untouched cells, and publishes the new snapshot. An
// empty delta is a no-op that keeps the current generation. On error the
// delta is returned to the buffer for a later retry and the published
// snapshot is unchanged.
func (m *Manager) Flush() (Stats, error) {
	m.flushMu.Lock()
	defer m.flushMu.Unlock()
	start := time.Now()

	m.appendMu.Lock()
	rows, aux, kinds := m.log.steal()
	var frozen []*table.Dict
	if m.dicts != nil {
		frozen = make([]*table.Dict, len(m.dicts))
		for d, dict := range m.dicts {
			frozen[d] = table.DictFromNames(dict.Names())
		}
	}
	m.appendMu.Unlock()

	cur := m.snap.Load()
	n := len(rows) / m.nd
	if n == 0 {
		return Stats{Generation: cur.Generation}, nil
	}

	newBase, nAppended, nDeleted, err := applyDelta(m.base, rows, aux, kinds, frozen)
	if err == nil {
		dim := m.cfg.Dim
		affected := make(map[core.Value]bool)
		for i := 0; i < n; i++ {
			affected[rows[i*m.nd+dim]] = true
		}
		var newStore *cubestore.Store
		var rebuilt int64
		newStore, rebuilt, err = m.rebuild(cur.Store, newBase, affected)
		if err == nil {
			next := &Snapshot{
				Store:      newStore,
				Dicts:      frozen,
				Generation: cur.Generation + 1,
				Rows:       int64(newBase.NumTuples()),
			}
			m.snap.Store(next)
			m.base = newBase
			m.baseCounts = nil // delete validation rebuilds over the new base

			m.appendMu.Lock()
			werr := m.log.rewrite()
			copy(m.cards, newBase.Cards) // published cardinalities bound future appends
			m.appendMu.Unlock()

			// The snapshot is serving; hand it to the backend (a no-op
			// locally, a partition-snapshot ship for a shard worker). Failure
			// is surfaced like a WAL rewrite failure: visible, not unpublished.
			werr = errors.Join(werr, m.backend.Publish(next))

			st := Stats{
				Generation:           next.Generation,
				Appended:             nAppended,
				Deleted:              nDeleted,
				PartitionsRecomputed: len(affected),
				PartitionsTotal:      distinctValues(newBase, dim),
				CellsRetained:        newStore.NumCells() - rebuilt,
				CellsRebuilt:         rebuilt,
				Elapsed:              time.Since(start),
			}
			return m.finishFlush(st, werr)
		}
	}
	m.appendMu.Lock()
	m.log.unsteal(rows, aux, kinds)
	m.appendMu.Unlock()
	return Stats{}, err
}

// finishFlush records the published refresh's stats and surfaces a WAL
// rewrite or backend publication failure without unpublishing.
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

// rebuild computes the new store for the edited relation: partition-scoped
// recompute plus group-level merge, or a full recompute when the relation
// cannot be decomposed (fewer than two dimensions). A relation whose every
// tuple was deleted has no cells at all — the engines assume at least one
// tuple, so that degenerate cube is built directly.
//
// The iceberg residual follows the store: when the old store carries one, the
// replacement partitions' residual is recomputed from their tuples and merged
// group-style (full rebuild paths recompute it over the whole relation). When
// the old store lacks one — it was built without SetResidual — the refreshed
// store stays residual-free, so it never claims an exactness it cannot prove.
func (m *Manager) rebuild(old *cubestore.Store, t *table.Table, affected map[core.Value]bool) (*cubestore.Store, int64, error) {
	carry := old.HasResidual()
	if t.NumTuples() == 0 || m.nd < 2 {
		var fresh []core.Cell
		if t.NumTuples() > 0 {
			var err error
			if fresh, err = m.computeAll(t); err != nil {
				return nil, 0, err
			}
		}
		var res *cubestore.Residual
		if carry {
			res = cubestore.ComputeResidual(t.Cols, t.Aux, m.cfg.ECfg.MinSup, m.cfg.ECfg.Measure)
		}
		s, err := buildStore(m.nd, old.HasAux(), fresh, res)
		return s, int64(len(fresh)), err
	}
	fresh, sub, err := m.recompute(t, affected)
	if err != nil {
		return nil, 0, err
	}
	var freshRes *cubestore.Residual
	if carry {
		// Residual rows fix every dimension, so their multiplicities within the
		// touched partitions' tuples are already globally correct.
		freshRes = cubestore.ComputeResidual(sub.Cols, sub.Aux, m.cfg.ECfg.MinSup, m.cfg.ECfg.Measure)
	}
	s, err := old.MergePartitions(m.cfg.Dim, func(v core.Value) bool { return affected[v] }, fresh, freshRes)
	return s, int64(len(fresh)), err
}

// recompute produces the replacement cells of a refresh: the closed cells
// fixing the partition dimension to a touched value (cubed shard-by-shard
// over the touched partitions' tuples only) and the whole wildcard slice
// (projection cube plus the agreement check). The engine runs on up to
// Workers goroutines. The returned sub-relation holds exactly the touched
// partitions' tuples (the fresh residual's source).
func (m *Manager) recompute(t *table.Table, affected map[core.Value]bool) ([]core.Cell, *table.Table, error) {
	dim := m.cfg.Dim
	workers := m.cfg.Workers
	if workers < 1 {
		workers = 1
	}

	// Sub-relation: every tuple of a touched partition. Cells fixing dim to a
	// touched value aggregate only these tuples, so cubing the sub-relation
	// yields their globally correct counts and closedness.
	var tids []core.TID
	col := t.Cols[dim]
	for tid := 0; tid < t.NumTuples(); tid++ {
		if affected[col[tid]] {
			tids = append(tids, core.TID(tid))
		}
	}
	sub := t.Subset(tids)
	ns := m.cfg.Shards
	if ns <= 0 {
		ns = 4 * workers
	}
	if ns > len(affected) {
		ns = len(affected)
	}
	if ns < 1 {
		ns = 1
	}
	shards := parallel.ShardTables(sub, dim, ns)

	projDims := make([]int, 0, m.nd-1)
	for d := 0; d < m.nd; d++ {
		if d != dim {
			projDims = append(projDims, d)
		}
	}
	proj, err := t.Project(projDims)
	if err != nil {
		return nil, nil, err
	}

	var mu sync.Mutex
	var fresh []core.Cell
	var scan *parallel.AgreementScan
	// The projection pass sees every tuple and is usually the longest job; it
	// goes first so the pool stays busy, and the moment it finishes it
	// submits the agreement scan's chunk jobs back into the pool, overlapping
	// the closedness check with shard jobs still running.
	pool := parallel.NewPool(workers)
	pool.Submit(func() error {
		c := &sink.Collector{}
		if err := m.cfg.Eng.Run(proj, m.cfg.ECfg, c); err != nil {
			return fmt.Errorf("refresh: projection pass: %w", err)
		}
		scan = parallel.NewAgreementScan(t, dim, projDims, c.Cells, workers)
		if scan != nil {
			for _, job := range scan.Jobs() {
				pool.Submit(job)
			}
		}
		return nil
	})
	for _, st := range shards {
		st := st
		pool.Submit(func() error {
			c := &sink.Collector{}
			if err := m.cfg.Eng.Run(st, m.cfg.ECfg, &fixedOnly{next: c, dim: dim}); err != nil {
				return fmt.Errorf("refresh: partition shard: %w", err)
			}
			mu.Lock()
			fresh = append(fresh, c.Cells...)
			mu.Unlock()
			return nil
		})
	}
	if err := pool.Wait(); err != nil {
		return nil, nil, err
	}
	if scan != nil {
		col := &sink.Collector{Cells: fresh}
		scan.EmitSurvivors(col)
		fresh = col.Cells
	}
	return fresh, sub, nil
}

// computeAll cubes the whole relation (the non-decomposable fallback).
func (m *Manager) computeAll(t *table.Table) ([]core.Cell, error) {
	c := &sink.Collector{}
	if err := m.cfg.Eng.Run(t, m.cfg.ECfg, c); err != nil {
		return nil, fmt.Errorf("refresh: %w", err)
	}
	return c.Cells, nil
}

// fixedOnly keeps cells fixing the partition dimension (shard runs), the
// filter of internal/parallel's shard jobs.
type fixedOnly struct {
	next sink.Sink
	dim  int
}

//ccubing:hotpath
func (f *fixedOnly) Emit(vals []core.Value, count int64, aux float64) {
	if vals[f.dim] != core.Star {
		f.next.Emit(vals, count, aux)
	}
}

// appendRows builds the grown relation from an append-only delta; see
// applyDelta for the general (tombstone-bearing) form.
func appendRows(t *table.Table, rows []core.Value, aux []float64, dicts []*table.Dict) *table.Table {
	nt, _, _, err := applyDelta(t, rows, aux, nil, dicts)
	if err != nil {
		panic(err) // unreachable: an append-only delta cannot leave unmatched tombstones
	}
	return nt
}

// applyDelta builds the edited relation: base's surviving tuples followed by
// the delta's surviving appends, columns copied (the base table is never
// mutated — it may be shared with the caller's dataset). kinds discriminates
// the delta rows (nil = all appends); each tombstone row removes one
// occurrence matching on every dimension and, when the relation has a
// measure, the measure value — from the base relation or from an append in
// the same delta (an appended-then-deleted tuple nets out). Cardinalities
// never shrink: they grow to cover the delta's values and the staging
// dictionaries, so deleting a dimension's maximum value keeps the published
// coding stable. Returns the new relation and the appended/deleted counts;
// a tombstone with no match is an error (enqueue-time validation makes that
// unreachable short of a corrupted WAL).
func applyDelta(t *table.Table, rows []core.Value, aux []float64, kinds []byte, dicts []*table.Dict) (*table.Table, int, int, error) {
	nd := t.NumDims()
	dn := len(rows) / nd
	hasAux := t.Aux != nil

	// The tombstone multiset, keyed like delete validation.
	var dels map[string]int
	nDeleted := 0
	buf := make([]byte, 0, 4*nd+8)
	for i := 0; i < dn; i++ {
		if kinds == nil || (kinds[i] != opDelete && kinds[i] != opUpdateOld) {
			continue
		}
		if dels == nil {
			dels = make(map[string]int)
		}
		var a float64
		if hasAux {
			a = aux[i]
		}
		dels[rowKey(buf, rows[i*nd:(i+1)*nd], a, hasAux)]++
		nDeleted++
	}

	// Survivors: base tuples, then delta appends, each consuming a matching
	// tombstone when one is pending.
	keepBase := make([]core.TID, 0, t.NumTuples())
	row := make([]core.Value, nd)
	for tid := 0; tid < t.NumTuples(); tid++ {
		if dels != nil {
			var a float64
			if hasAux {
				a = t.Aux[tid]
			}
			k := rowKey(buf, t.Row(core.TID(tid), row), a, hasAux)
			if dels[k] > 0 {
				dels[k]--
				continue
			}
		}
		keepBase = append(keepBase, core.TID(tid))
	}
	keepDelta := make([]int, 0, dn)
	for i := 0; i < dn; i++ {
		if kinds != nil && (kinds[i] == opDelete || kinds[i] == opUpdateOld) {
			continue
		}
		if dels != nil {
			var a float64
			if hasAux {
				a = aux[i]
			}
			k := rowKey(buf, rows[i*nd:(i+1)*nd], a, hasAux)
			if dels[k] > 0 {
				dels[k]--
				continue
			}
		}
		keepDelta = append(keepDelta, i)
	}
	for k, left := range dels {
		if left > 0 {
			return nil, 0, 0, fmt.Errorf("refresh: %d tombstone(s) for tuple %x match nothing in the relation or delta", left, k)
		}
	}

	n := len(keepBase)
	nt := table.New(nd, n+len(keepDelta))
	copy(nt.Names, t.Names)
	for d := 0; d < nd; d++ {
		col := nt.Cols[d]
		for i, tid := range keepBase {
			col[i] = t.Cols[d][tid]
		}
		card := t.Cards[d]
		for i, di := range keepDelta {
			v := rows[di*nd+d]
			col[n+i] = v
			if int(v)+1 > card {
				card = int(v) + 1
			}
		}
		// Tombstoned appends never materialize, but their values were accepted
		// into the delta's domain; growing over them too keeps cards monotone
		// regardless of cancellation order.
		for i := 0; i < dn; i++ {
			if v := rows[i*nd+d]; int(v)+1 > card {
				card = int(v) + 1
			}
		}
		if dicts != nil && dicts[d].Len() > card {
			card = dicts[d].Len()
		}
		nt.Cards[d] = card
	}
	if hasAux {
		nt.Aux = make([]float64, n+len(keepDelta))
		for i, tid := range keepBase {
			nt.Aux[i] = t.Aux[tid]
		}
		for i, di := range keepDelta {
			nt.Aux[n+i] = aux[di]
		}
	}
	nAppended := dn - nDeleted
	return nt, nAppended, nDeleted, nil
}

// buildStore freezes cells into a store from scratch, attaching res when
// non-nil.
func buildStore(nd int, hasAux bool, cells []core.Cell, res *cubestore.Residual) (*cubestore.Store, error) {
	b := cubestore.NewBuilder(nd, hasAux)
	for _, c := range cells {
		b.Add(c.Values, c.Count, c.Aux)
	}
	if res != nil {
		if err := b.SetResidual(res); err != nil {
			return nil, err
		}
	}
	return b.Build()
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
