package refresh

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"ccubing/internal/core"
)

// Batch is one mutation of the relation, in the shape the delta log stores
// it: rows in order, one op kind each. Rows come as labels or as coded values
// (exactly one of the two); Aux carries one measure value per row iff the
// relation has a measure column; Kinds is nil for an all-append batch, else
// one Op* per row with update pairs adjacent (OpUpdateOld, then its
// OpUpdateNew). The JSON tags are the serving layer's wire names.
type Batch struct {
	Rows   [][]string     `json:"rows,omitempty"`
	Values [][]core.Value `json:"values,omitempty"`
	Aux    []float64      `json:"aux,omitempty"`
	Kinds  []byte         `json:"kinds,omitempty"`
}

// Len returns the number of ops (an update pair counts as two).
func (b Batch) Len() int { return len(b.Rows) + len(b.Values) }

// Kind returns op i's kind.
func (b Batch) Kind(i int) byte {
	if b.Kinds == nil {
		return OpAppend
	}
	return b.Kinds[i]
}

// Row returns the row number errors and counts use for op i: its position in
// the batch with an update pair counted as one row.
func (b Batch) Row(i int) int {
	r := i
	for _, k := range b.Kinds[:min(i, len(b.Kinds))] {
		if k == OpUpdateNew {
			r--
		}
	}
	return r
}

// Of returns b with every row an op of the given kind.
func (b Batch) Of(kind byte) Batch {
	b.Kinds = nil
	if kind != OpAppend {
		b.Kinds = bytes.Repeat([]byte{kind}, b.Len())
	}
	return b
}

// Check vets what needs no relation to vet: one row form, aux and kinds as
// long as the rows, every OpUpdateOld followed by its OpUpdateNew. It reports
// whether the batch holds a tombstone (a delete or an update's old row).
func (b Batch) Check() (tombstones bool, err error) {
	n := b.Len()
	switch {
	case b.Rows != nil && b.Values != nil:
		return false, fmt.Errorf("refresh: batch has both labeled rows and coded values")
	case b.Aux != nil && len(b.Aux) != n:
		return false, fmt.Errorf("refresh: aux has %d values, want %d", len(b.Aux), n)
	case b.Kinds != nil && len(b.Kinds) != n:
		return false, fmt.Errorf("refresh: %d op kinds for %d rows", len(b.Kinds), n)
	}
	for i, k := range b.Kinds {
		switch {
		case k > OpUpdateNew:
			return false, fmt.Errorf("refresh: op %d has unknown kind %d", i, k)
		case k == OpUpdateOld && (i+1 == n || b.Kinds[i+1] != OpUpdateNew),
			k == OpUpdateNew && (i == 0 || b.Kinds[i-1] != OpUpdateOld):
			return false, fmt.Errorf("refresh: op %d: an update is an adjacent (old, new) pair", i)
		}
		tombstones = tombstones || isTombstone(k)
	}
	return tombstones, nil
}

func isTombstone(kind byte) bool { return kind == OpDelete || kind == OpUpdateOld }

// Updates builds the batch replacing old[i] by new[i], from parallel old/new
// rows in exactly one of the labeled and the coded form; the aux columns are
// both given or both nil.
func Updates(oldRows, newRows [][]string, oldValues, newValues [][]core.Value, oldAux, newAux []float64) (Batch, error) {
	labeled := oldRows != nil || newRows != nil
	if coded := oldValues != nil || newValues != nil; labeled == coded {
		return Batch{}, fmt.Errorf(`refresh: exactly one of "old_rows"/"new_rows" and "old_values"/"new_values" is required`)
	}
	n := len(oldRows) + len(oldValues)
	if got := len(newRows) + len(newValues); got != n {
		return Batch{}, fmt.Errorf("refresh: update has %d old rows and %d new rows", n, got)
	}
	b := Batch{Rows: interleave(oldRows, newRows), Values: interleave(oldValues, newValues), Kinds: make([]byte, 2*n)}
	if oldAux != nil || newAux != nil {
		if len(oldAux) != n || len(newAux) != n {
			return Batch{}, fmt.Errorf("refresh: update has %d old and %d new aux values for %d pairs", len(oldAux), len(newAux), n)
		}
		b.Aux = interleave(oldAux, newAux)
	}
	for i := range b.Kinds {
		b.Kinds[i] = OpUpdateOld + byte(i&1)
	}
	return b, nil
}

// interleave returns a[0], b[0], a[1], b[1], …; nil when both are.
func interleave[T any](a, b []T) []T {
	if a == nil && b == nil {
		return nil
	}
	out := make([]T, 0, 2*len(a))
	for i := range a {
		out = append(out, a[i], b[i])
	}
	return out
}

// Apply validates and buffers one batch, all of it or none. Appended rows
// follow the append contract: on a labeled relation a coded value must be a
// code the dictionaries know, while an unseen label extends the staging
// dictionaries (published with the next refresh); on a coded relation a value
// may exceed the published cardinality by at most cardSlack — new values grow
// the dimension's domain on refresh, the bound keeps a hostile value from
// forcing cardinality-sized allocations. Tombstones name existing tuples: on
// the next refresh each removes one occurrence matching on every dimension
// and, on a measure relation, the measure value; one that matches nothing in
// the base relation plus the pending delta plus the batch's earlier ops is
// rejected, and the batch with it. An update pair is one crash-safe WAL
// record. New labels are coded tentatively and join the dictionaries only
// once the log has the batch, so a rejected batch — or a failed WAL write —
// leaves no phantom labels.
//
// It returns the rows buffered (an update pair counts once) and whether the
// call ran the threshold refresh. With rows > 0 an error is that refresh's:
// the batch is buffered.
func (m *Manager) Apply(b Batch) (rows int, refreshed bool, err error) {
	tombstones, err := b.Check()
	if err == nil {
		err = m.validateAux(b.Len(), b.Aux)
	}
	if err != nil {
		return 0, false, err
	}
	// Tombstones are checked against the base relation, which flushMu guards.
	// An all-append batch never takes it, so appends keep flowing into the
	// next delta while a refresh computes.
	var trigger bool
	if tombstones {
		m.flushMu.Lock()
		trigger, err = m.delta.apply(b, m.baseTuples())
		m.flushMu.Unlock()
	} else {
		trigger, err = m.delta.apply(b, nil)
	}
	if err != nil {
		return 0, false, err
	}
	rows = b.Row(b.Len())
	if !trigger {
		return rows, false, nil
	}
	if _, err := m.Flush(); err != nil {
		return rows, false, fmt.Errorf("refresh: threshold refresh: %w", err)
	}
	return rows, true, nil
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

// rowKey packs one tuple into a multiset key, in buf's storage. On measure
// relations the measure value participates: two tuples agreeing on every
// dimension but carrying different measures are distinct occurrences, and a
// tombstone names exactly which one leaves. A lookup indexes with
// m[string(key)], which does not allocate; only a key that is stored is
// converted to a string.
func rowKey(buf []byte, vals []core.Value, aux float64, hasAux bool) []byte {
	buf = buf[:0]
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	if hasAux {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(aux))
	}
	return buf
}

// flatKey is rowKey of row i of a flattened delta (nd values per row; aux is
// nil on a relation without a measure).
func flatKey(buf []byte, nd int, vals []core.Value, aux []float64, i int) []byte {
	if aux == nil {
		return rowKey(buf, vals[i*nd:(i+1)*nd], 0, false)
	}
	return rowKey(buf, vals[i*nd:(i+1)*nd], aux[i], true)
}

// baseTuples returns the tuple multiset of the base relation, building it on
// first use after each refresh; like base, it is read under flushMu.
func (m *Manager) baseTuples() map[string]int {
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
		counts[string(rowKey(buf, m.base.Row(core.TID(tid), row), aux, m.hasAux))]++
	}
	m.baseCounts = counts
	return counts
}
