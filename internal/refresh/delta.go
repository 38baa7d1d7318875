package refresh

import (
	"fmt"

	"ccubing/internal/core"
	"ccubing/internal/table"
)

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
		if kinds == nil || !isTombstone(kinds[i]) {
			continue
		}
		if dels == nil {
			dels = make(map[string]int)
		}
		dels[string(flatKey(buf, nd, rows, aux, i))]++
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
			if dels[string(k)] > 0 {
				dels[string(k)]--
				continue
			}
		}
		keepBase = append(keepBase, core.TID(tid))
	}
	keepDelta := make([]int, 0, dn)
	for i := 0; i < dn; i++ {
		if kinds != nil && isTombstone(kinds[i]) {
			continue
		}
		if dels != nil {
			if k := flatKey(buf, nd, rows, aux, i); dels[string(k)] > 0 {
				dels[string(k)]--
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
