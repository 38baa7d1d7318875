package refresh

import (
	"bytes"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/fuzzbound"
	"ccubing/internal/table"
)

// FuzzWALReplay feeds arbitrary bytes to the delta log's replay as the
// contents of a WAL. Property: a rejected log is left byte-for-byte untouched;
// an accepted one keeps only a prefix of its input (the torn or corrupt tail
// is truncated, nothing is invented), and its rewritten image replays to the
// same rows and rewrites byte-identically — never a panic, never an
// allocation beyond the input's size class. Seeds: a log exercising every
// record type with each single-byte flip and each truncation, and a legacy
// version-1 image.
func FuzzWALReplay(f *testing.F) {
	seed := &memWAL{}
	l := newDeltaLog(2, true)
	if _, err := l.attach(seed, nil); err != nil {
		f.Fatal(err)
	}
	appendOps(f, l, mixedOps())
	fuzzbound.Corpus(seed.b, func(b []byte) { f.Add(b, uint8(2), true) })
	f.Add(append([]byte(walMagic), 1, 2, 0, 1, 0, 0, 0, 2, 0, 0, 0), uint8(2), false)

	f.Fuzz(func(t *testing.T, data []byte, nd uint8, hasAux bool) {
		if nd == 0 || int(nd) > core.MaxDims {
			return // the Manager only builds logs for validated relations
		}
		w := &memWAL{b: append([]byte(nil), data...)}
		l := newDeltaLog(int(nd), hasAux)
		var n int
		var err error
		fuzzbound.Check(t, len(data), func() { n, err = l.attach(w, nil) })
		if err != nil {
			if !bytes.Equal(w.b, data) {
				t.Fatalf("rejected log was modified (%d bytes, was %d): %v", len(w.b), len(data), err)
			}
			return
		}
		if len(data) > 0 && !bytes.HasPrefix(data, w.b) {
			t.Fatalf("replay kept %d bytes that are not a prefix of the %d-byte input", len(w.b), len(data))
		}
		if n != l.rows() {
			t.Fatalf("attach reported %d rows, buffer holds %d", n, l.rows())
		}
		if err := l.rewrite(); err != nil {
			t.Fatal(err)
		}
		canon := append([]byte(nil), w.b...)
		w2 := &memWAL{b: append([]byte(nil), canon...)}
		r := newDeltaLog(int(nd), hasAux)
		n2, err := r.attach(w2, nil)
		if err != nil || n2 != n {
			t.Fatalf("rewritten log replayed %d rows (err %v), want %d", n2, err, n)
		}
		if err := r.rewrite(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w2.b, canon) {
			t.Fatalf("rewrite → replay → rewrite not byte-identical (%d vs %d bytes)", len(w2.b), len(canon))
		}
	})
}

// The operations of a FuzzRefresh case, one byte each (modulo fuzzOps).
const (
	fuzzAppend = iota // then nd values and, with a measure, a measure byte
	fuzzDelete        // then the index of a live tuple, modulo their number
	fuzzUpdate        // then a live tuple's index, and the replacement as for an append
	fuzzFlush
	fuzzOps
)

// refreshCase is a FuzzRefresh input decoded: a relation and its cube's
// settings, and the edits to fold into it. The layout, one byte per field
// (taken modulo its range; bytes past the end read as zero): nd − 1, nd
// cardinalities − 1, the tuple count, minsup − 1, the measure kind, the
// residual flag; the tuples, nd values each plus a measure byte when a
// measure is stored; then operations until the input ends.
type refreshCase struct {
	nd       int
	cards    []int
	minsup   int64
	kind     core.MeasureKind
	residual bool
	rows     [][]core.Value
	aux      []float64 // nil without a measure
	data     []byte    // the operations, still encoded
}

func decodeRefreshCase(data []byte) *refreshCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	c := &refreshCase{nd: 1 + next()%4}
	c.cards = make([]int, c.nd)
	for d := range c.cards {
		c.cards[d] = 1 + next()%5
	}
	n := next() % 61
	c.minsup = int64(1 + next()%4)
	c.kind = core.MeasureKind(next() % 5)
	c.residual = next()%2 == 1
	for i := 0; i < n; i++ {
		c.rows = append(c.rows, c.row(next, c.cards))
		if c.kind != core.MeasureNone {
			c.aux = append(c.aux, c.measure(next()))
		}
	}
	c.data = data
	return c
}

// row decodes one tuple, each value below the dimension's bound.
func (c *refreshCase) row(next func() int, bound []int) []core.Value {
	row := make([]core.Value, c.nd)
	for d := range row {
		row[d] = core.Value(next() % bound[d])
	}
	return row
}

// measure decodes a measure value: small integers, so that every summation
// order gives the same bits.
func (c *refreshCase) measure(b int) float64 { return float64(b%16 - 4) }

// relation builds the table of rows (measure values aux), its cardinalities
// at least c.cards.
func (c *refreshCase) relation(rows [][]core.Value, aux []float64) *table.Table {
	t := table.New(c.nd, len(rows))
	copy(t.Cards, c.cards)
	for i, row := range rows {
		for d, v := range row {
			t.Cols[d][i] = v
			t.Cards[d] = max(t.Cards[d], int(v)+1)
		}
	}
	if c.kind != core.MeasureNone {
		t.Aux = append([]float64{}, aux...)
	}
	return t
}

// FuzzRefresh is the refresh's exactness claim searched: a small relation
// (nd 1–4, cardinalities ≤ 5, at most 60 tuples) cubed at minsup 1–4, with a
// measure of any kind or none and with or without the iceberg residual, then
// edited by appends (values up to one past the cardinality), tombstones of
// live tuples and update pairs. After every flush the published store must be
// byte-identical to a closed cube built from scratch over the edited
// relation. Seeds: the cases of TestFlushWildcardTransitions and the
// boundary shapes — one dimension, every tuple deleted, a partition emptied,
// a minsup crossing on dimension 0.
func FuzzRefresh(f *testing.F) {
	for _, seed := range refreshSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeRefreshCase(data)
		live, liveAux := c.rows, c.aux
		ecfg := engine.Config{MinSup: c.minsup, Closed: true, Measure: c.kind}
		base := c.relation(live, liveAux)
		m, err := NewManager(base, buildStoreFor(t, base, c.minsup, c.kind, c.residual), nil, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := c.data
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		bound := make([]int, c.nd) // appends may bring one new value per dimension
		for d := range bound {
			bound[d] = c.cards[d] + 1
		}
		// one returns the measure argument of a one-row batch.
		one := func(aux float64) []float64 {
			if c.kind == core.MeasureNone {
				return nil
			}
			return []float64{aux}
		}
		// take removes live tuple i, returning it and its measure.
		take := func(i int) ([]core.Value, float64) {
			row := live[i]
			live = append(live[:i:i], live[i+1:]...)
			var aux float64
			if liveAux != nil {
				aux = liveAux[i]
				liveAux = append(liveAux[:i:i], liveAux[i+1:]...)
			}
			return row, aux
		}
		flushes := 0
		flush := func() {
			flushes++
			if _, err := m.Flush(); err != nil {
				t.Fatalf("flush %d: %v", flushes, err)
			}
			got := m.Snapshot().Store
			want := buildStoreFor(t, c.relation(live, liveAux), c.minsup, c.kind, c.residual)
			if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
				t.Fatalf("flush %d (nd %d, minsup %d, %v, residual %v, %d tuples left): refreshed store differs from a rebuild:\n got %v, residual %d rows\nwant %v, residual %d rows",
					flushes, c.nd, c.minsup, c.kind, c.residual, len(live), storeCells(got), got.ResidualRows(), storeCells(want), want.ResidualRows())
			}
		}
		for steps := 0; len(ops) > 0 && steps < 64; steps++ {
			switch next() % fuzzOps {
			case fuzzAppend:
				row, aux := c.row(next, bound), c.measure(next())
				if _, _, err := m.Append([][]core.Value{row}, one(aux)); err != nil {
					t.Fatal(err)
				}
				live = append(live, row)
				if c.kind != core.MeasureNone {
					liveAux = append(liveAux, aux)
				}
			case fuzzDelete:
				if len(live) == 0 {
					continue
				}
				row, aux := take(next() % len(live))
				if _, _, err := m.Delete([][]core.Value{row}, one(aux)); err != nil {
					t.Fatal(err)
				}
			case fuzzUpdate:
				if len(live) == 0 {
					continue
				}
				old, oldAux := take(next() % len(live))
				row, aux := c.row(next, bound), c.measure(next())
				if _, _, err := m.Update([][]core.Value{old}, [][]core.Value{row}, one(oldAux), one(aux)); err != nil {
					t.Fatal(err)
				}
				live = append(live, row)
				if c.kind != core.MeasureNone {
					liveAux = append(liveAux, aux)
				}
			case fuzzFlush:
				flush()
			}
		}
		flush()
	})
}

// refreshSeeds encodes FuzzRefresh's seed corpus.
func refreshSeeds() [][]byte {
	// header encodes a case's settings and tuples; a measure is the byte
	// 4 + its value.
	header := func(cards []int, minsup int64, kind core.MeasureKind, residual bool, rows [][]core.Value, aux []int) []byte {
		b := []byte{byte(len(cards) - 1)}
		for _, c := range cards {
			b = append(b, byte(c-1))
		}
		res := byte(0)
		if residual {
			res = 1
		}
		b = append(b, byte(len(rows)), byte(minsup-1), byte(kind), res)
		for i, row := range rows {
			for _, v := range row {
				b = append(b, byte(v))
			}
			if kind != core.MeasureNone {
				b = append(b, byte(aux[i]+4))
			}
		}
		return b
	}
	// appendOp encodes an append without its measure byte.
	appendOp := func(row ...core.Value) []byte {
		b := []byte{fuzzAppend}
		for _, v := range row {
			b = append(b, byte(v))
		}
		return b
	}
	deleteOp := func(i int) []byte { return []byte{fuzzDelete, byte(i)} }
	var seeds [][]byte
	// TestFlushWildcardTransitions' cases: minsup 2 over 3×3×3, no measure.
	for _, tc := range []struct {
		base [][]core.Value
		op   []byte
	}{
		{[][]core.Value{{0, 1, 1}, {1, 1, 1}, {0, 0, 0}, {1, 0, 2}, {2, 2, 2}, {2, 2, 0}}, deleteOp(1)},
		{[][]core.Value{{0, 0, 0}, {1, 0, 0}, {2, 0, 1}, {2, 1, 1}, {0, 1, 2}}, deleteOp(2)},
		{[][]core.Value{{0, 0, 0}, {0, 0, 0}, {1, 0, 0}, {1, 1, 1}, {2, 1, 2}}, deleteOp(2)},
		{[][]core.Value{{0, 1, 2}, {0, 0, 0}, {1, 0, 0}, {2, 2, 1}, {2, 2, 1}}, appendOp(1, 1, 2)},
		{[][]core.Value{{0, 0, 0}, {1, 0, 0}, {2, 1, 1}, {2, 2, 2}, {1, 2, 1}}, appendOp(2, 0, 1)},
	} {
		seeds = append(seeds, append(header([]int{3, 3, 3}, 2, core.MeasureNone, false, tc.base, nil), tc.op...))
	}
	// One dimension: a delete, an append, a flush, then an update.
	seed := header([]int{3}, 2, core.MeasureSum, true, [][]core.Value{{0}, {0}, {1}, {2}, {2}, {2}}, []int{1, 2, 3, 4, 5, 6})
	seed = append(seed, deleteOp(0)...)
	seed = append(seed, appendOp(1)...)
	seed = append(seed, 5, fuzzFlush, fuzzUpdate, 3, 0, 9)
	seeds = append(seeds, seed)
	// Every tuple deleted, then one appended to the empty relation.
	seed = header([]int{2, 3}, 1, core.MeasureMax, true, [][]core.Value{{0, 1}, {1, 2}, {1, 2}, {0, 0}}, []int{3, -2, 7, 0})
	for range 4 {
		seed = append(seed, deleteOp(0)...)
	}
	seed = append(seed, fuzzFlush)
	seed = append(seed, appendOp(1, 1)...)
	seeds = append(seeds, append(seed, 5))
	// A partition emptied: partition 0's two tuples leave.
	seed = header([]int{3, 2, 2}, 1, core.MeasureAvg, false, [][]core.Value{{0, 0, 1}, {1, 0, 1}, {0, 1, 0}, {2, 1, 1}, {1, 1, 1}}, []int{1, 2, 3, 4, 5})
	seed = append(seed, deleteOp(0)...)
	seed = append(seed, deleteOp(1)...)
	seeds = append(seeds, seed)
	// A minsup crossing on dimension 0, both ways: partition 1 rises to minsup
	// 3, partition 0 falls below it; min is refolded over what is left.
	seed = header([]int{3, 3, 2}, 3, core.MeasureMin, true,
		[][]core.Value{{0, 0, 0}, {0, 1, 1}, {0, 2, 0}, {1, 0, 0}, {1, 0, 1}, {2, 1, 1}, {2, 2, 1}, {2, 1, 0}},
		[]int{-3, 2, 5, 1, 0, 4, 4, 2})
	seed = append(seed, appendOp(1, 0, 0)...)
	seed = append(seed, 5)
	seed = append(seed, deleteOp(0)...)
	seeds = append(seeds, seed)
	return seeds
}
