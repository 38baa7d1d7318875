package refresh

import (
	"errors"
	"fmt"
	"sync"

	"ccubing/internal/core"
	"ccubing/internal/table"
)

// staged is a Manager's staged delta: the write-ahead log of buffered ops and
// everything that buffering one reads or moves — the staging dictionaries,
// the published cardinalities, the auto-refresh row threshold.
//
// Lock discipline: mu is a leaf lock. It is locked and unlocked inside the
// methods of this file and nowhere else, and none of them calls a Manager
// method, Flush, or anything else that takes a lock (the WAL moves bytes, the
// metrics are atomics). No goroutine can therefore ask for Manager.flushMu, or
// for any lock, while it holds mu, so "flushMu before mu" holds by
// construction: Flush, and Apply for a batch holding a tombstone, call in
// here with flushMu held; an all-append Apply calls in without it, which is
// what keeps appends flowing into the next delta while a refresh computes.
// Keep it that way: a method added here takes mu itself, returns what its
// caller needs, and leaves every decision that needs another lock to the caller.
type staged struct {
	mu       sync.Mutex    // guards everything below
	log      *deltaLog     // log.nd and log.hasAux are immutable
	dicts    []*table.Dict // staging dictionaries, grown by labeled appends; nil on a coded relation
	cards    []int         // published per-dimension cardinalities (append validation)
	autoRows int
}

// newStaged copies cards and dicts: the caller's become the published
// snapshot's.
func newStaged(nd int, hasAux bool, cards []int, dicts []*table.Dict) *staged {
	return &staged{
		log:   newDeltaLog(nd, hasAux),
		dicts: copyDicts(dicts),
		cards: append([]int(nil), cards...),
	}
}

func copyDicts(dicts []*table.Dict) []*table.Dict {
	if dicts == nil {
		return nil
	}
	out := make([]*table.Dict, len(dicts))
	for d, dict := range dicts {
		out[d] = table.DictFromNames(dict.Names())
	}
	return out
}

// apply validates b against the dictionaries and cardinalities and buffers
// it, all of it or none, in one critical section: rows are coded (unseen
// labels tentatively), tombstones checked, the log — WAL first — takes the
// batch, and only then do the new labels join the dictionaries, so a rejected
// batch or a failed WAL write leaves no phantom labels. base is nil for a
// batch without tombstones; otherwise it is the base relation's tuple
// multiset, which the caller holds flushMu to read. trigger reports that the
// backlog reached the row threshold.
func (s *staged) apply(b Batch, base map[string]int) (trigger bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	flat, fresh, err := s.code(b)
	if err == nil && base != nil {
		err = s.checkAvailable(b, flat, base)
	}
	if err == nil {
		err = s.log.append(flat, b.Aux, b.Kinds)
	}
	if err != nil {
		return false, err
	}
	for d, labels := range fresh {
		for _, l := range labels {
			s.dicts[d].Code(l)
		}
	}
	return s.autoRows > 0 && s.log.rows() >= s.autoRows, nil
}

// steal hands the buffered delta to a refresh, with a frozen copy of the
// dictionaries that decode it, and resets the buffer.
func (s *staged) steal() (rows []core.Value, aux []float64, kinds []byte, frozen []*table.Dict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows, aux, kinds = s.log.steal()
	return rows, aux, kinds, copyDicts(s.dicts)
}

// unsteal returns a stolen delta to the front of the buffer after a failed
// refresh.
func (s *staged) unsteal(rows []core.Value, aux []float64, kinds []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.unsteal(rows, aux, kinds)
}

// published records that a refresh published the stolen delta: the WAL is
// rewritten to hold only what arrived since, and cards, the new relation's
// cardinalities, bound future appends.
func (s *staged) published(cards []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	copy(s.cards, cards)
	return s.log.rewrite()
}

// attach hands an opened write-ahead log to the delta log: pending records
// are replayed, then the log is rewritten to also hold any rows buffered
// before it existed. The delta log is staged in a copy and adopted only once
// both steps succeed, so on error — a file of another shape or version,
// replayed codes the dictionaries never assigned, an I/O failure — the
// buffer is kept, no WAL is attached, and w still belongs to the caller.
func (s *staged) attach(w WAL) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.w != nil {
		return fmt.Errorf("refresh: wal already attached")
	}
	staged := *s.log
	if _, err := staged.attach(w, s.knownCodes); err != nil {
		return err
	}
	if err := staged.rewrite(); err != nil {
		return err
	}
	*s.log = staged
	return nil
}

// backlog returns the number of buffered delta rows.
func (s *staged) backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.rows()
}

func (s *staged) threshold() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.autoRows
}

func (s *staged) setThreshold(rows int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.autoRows = rows
}

// close syncs buffered WAL records to durable storage and closes the WAL.
func (s *staged) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.log.sync(), s.log.close())
}

// The helpers below run inside the methods above, under mu.

// knownCodes vets replayed rows: on a labeled relation they must decode with
// the dictionaries we have; codes the staging dictionaries have never
// assigned would serve phantom labels.
func (s *staged) knownCodes(vals []core.Value) error {
	if s.dicts == nil {
		return nil
	}
	nd := s.log.nd
	for i, v := range vals {
		if d := i % nd; int(v) >= s.dicts[d].Len() {
			return fmt.Errorf("refresh: wal row %d: code %d unknown to dimension %d's dictionary (replay needs the original base relation)", i/nd, v, d)
		}
	}
	return nil
}

// code flattens b into coded values, validating every row. Labels the
// dictionaries lack get the codes they will receive (dictionaries grow densely
// in first-occurrence order) and are returned, per dimension in that order,
// for apply to commit. A tombstone's labels must be known — to the
// dictionaries or from an earlier row of the batch.
func (s *staged) code(b Batch) (flat []core.Value, fresh [][]string, err error) {
	nd := s.log.nd
	if b.Rows != nil && s.dicts == nil {
		return nil, nil, fmt.Errorf("refresh: relation has no dictionaries; send coded values")
	}
	flat = make([]core.Value, 0, b.Len()*nd)
	for i, row := range b.Values {
		if err := s.validateRow(row, b.Kinds != nil && isTombstone(b.Kinds[i])); err != nil {
			return nil, nil, fmt.Errorf("refresh: row %d %w", b.Row(i), err)
		}
		flat = append(flat, row...)
	}
	var codes []map[string]core.Value // of the fresh labels
	for i, row := range b.Rows {
		if len(row) != nd {
			return nil, nil, fmt.Errorf("refresh: row %d has %d fields, want %d", b.Row(i), len(row), nd)
		}
		for d, l := range row {
			code, ok := s.dicts[d].Lookup(l)
			if !ok && fresh != nil {
				code, ok = codes[d][l]
			}
			if !ok {
				if isTombstone(b.Kind(i)) {
					return nil, nil, fmt.Errorf("refresh: row %d dimension %d: label %q never occurred; no such tuple to delete", b.Row(i), d, l)
				}
				if fresh == nil {
					fresh, codes = make([][]string, nd), make([]map[string]core.Value, nd)
				}
				if codes[d] == nil {
					codes[d] = make(map[string]core.Value)
				}
				code = core.Value(s.dicts[d].Len() + len(fresh[d]))
				codes[d][l] = code
				fresh[d] = append(fresh[d], l)
			}
			flat = append(flat, code)
		}
	}
	return flat, fresh, nil
}

// validateRow checks one coded row's shape and values; a tombstone skips the
// cardinality-growth bound (the tuple must already exist, so its values
// cannot grow a domain). The error lacks the row number its caller knows.
func (s *staged) validateRow(row []core.Value, tombstone bool) error {
	if len(row) != s.log.nd {
		return fmt.Errorf("has %d values, want %d", len(row), s.log.nd)
	}
	for d, v := range row {
		if v < 0 {
			return fmt.Errorf("dimension %d: negative value %d", d, v)
		}
		if s.dicts != nil {
			if int(v) >= s.dicts[d].Len() {
				if tombstone {
					return fmt.Errorf("dimension %d: code %d unknown to the dictionary; no such tuple to delete", d, v)
				}
				return fmt.Errorf("dimension %d: code %d unknown to the dictionary (append by label to add it)", d, v)
			}
		} else if !tombstone && int64(v) >= int64(s.cards[d])+cardSlack {
			return fmt.Errorf("dimension %d: value %d exceeds cardinality %d by more than the growth bound %d",
				d, v, s.cards[d], cardSlack)
		}
	}
	return nil
}

// checkAvailable verifies that every tombstone of b (coded as flat, processed
// in order) targets a tuple present at that point: in the base relation, plus
// the net effect of the already-buffered delta, plus earlier ops of this
// batch.
func (s *staged) checkAvailable(b Batch, flat []core.Value, base map[string]int) error {
	nd := s.log.nd
	buf := make([]byte, 0, 4*nd+8)
	keys := make([]string, len(b.Kinds))
	// Net effect of the pending log, restricted to the keys this batch's
	// tombstones touch (the log is a bounded backlog; one linear scan).
	net := make(map[string]int)
	for i, k := range b.Kinds {
		keys[i] = string(flatKey(buf, nd, flat, b.Aux, i))
		if isTombstone(k) {
			net[keys[i]] = 0
		}
	}
	for i, k := range s.log.kinds {
		key := flatKey(buf, nd, s.log.vals, s.log.aux, i)
		if _, want := net[string(key)]; !want {
			continue
		}
		if isTombstone(k) {
			net[string(key)]--
		} else {
			net[string(key)]++
		}
	}
	for i, k := range b.Kinds {
		left, want := net[keys[i]]
		switch {
		case !isTombstone(k):
			if want {
				net[keys[i]]++
			}
		case base[keys[i]]+left <= 0:
			return fmt.Errorf("refresh: row %d: tuple %v not present in the relation plus the pending delta; nothing to delete",
				b.Row(i), flat[i*nd:(i+1)*nd])
		default:
			net[keys[i]]--
		}
	}
	return nil
}
