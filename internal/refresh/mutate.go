package refresh

import (
	"encoding/binary"
	"fmt"
	"math"

	"ccubing/internal/core"
)

// Append buffers coded rows. For labeled relations every value must be a
// code the dictionaries know (append by label instead to introduce new
// ones); for coded relations values may exceed the published cardinality by
// at most cardSlack — new values grow the dimension's domain on refresh,
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
		if m.dicts == nil && !tombstone && int64(v) >= int64(m.cards[d])+cardSlack {
			return fmt.Errorf("refresh: row %d dimension %d: value %d exceeds cardinality %d by more than the growth bound %d",
				i, d, v, m.cards[d], cardSlack)
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
