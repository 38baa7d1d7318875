package cubestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// tupleAux derives a deterministic per-tuple measure value. Integer-valued so
// float sums stay exact regardless of accumulation order.
func tupleAux(tbl *table.Table, tid int) float64 {
	v := int64(tid % 17)
	for d := 0; d < tbl.NumDims(); d++ {
		v += int64(tbl.Cols[d][tid]) * int64(d+1)
	}
	return float64(v)
}

// bruteResidual recomputes ComputeResidual's contract by independent means:
// group tuples by full key, keep groups below minSup, aggregate aux in stored
// form (explicit arithmetic, not core.CombineStored, so the test does not
// mirror the implementation).
func bruteResidual(tbl *table.Table, minSup int64, kind core.MeasureKind) map[string]ResidualRow {
	type acc struct {
		count int64
		aux   float64
	}
	groups := map[string]*acc{}
	nd := tbl.NumDims()
	key := make([]byte, 0, nd*core.ValueWidth)
	for tid := 0; tid < tbl.NumTuples(); tid++ {
		key = key[:0]
		for d := 0; d < nd; d++ {
			key = core.AppendValue(key, tbl.Cols[d][tid])
		}
		x := tupleAux(tbl, tid)
		a := groups[string(key)]
		if a == nil {
			groups[string(key)] = &acc{count: 1, aux: x}
			continue
		}
		a.count++
		switch kind {
		case core.MeasureMin:
			if x < a.aux {
				a.aux = x
			}
		case core.MeasureMax:
			if x > a.aux {
				a.aux = x
			}
		default: // sum and avg both store the running sum
			a.aux += x
		}
	}
	out := map[string]ResidualRow{}
	for k, a := range groups {
		if a.count >= minSup {
			continue
		}
		vals := make([]core.Value, nd)
		for d := 0; d < nd; d++ {
			vals[d] = core.DecodeValue([]byte(k)[d*core.ValueWidth:])
		}
		out[k] = ResidualRow{Values: vals, Count: a.count, Aux: a.aux}
	}
	return out
}

func auxColumn(tbl *table.Table) []float64 {
	aux := make([]float64, tbl.NumTuples())
	for tid := range aux {
		aux[tid] = tupleAux(tbl, tid)
	}
	return aux
}

// TestComputeResidualBruteForce checks ComputeResidual against independent
// tuple grouping for every measure kind and several thresholds, on narrow
// codes and on codes past 256, where packed-key order is not value order.
func TestComputeResidualBruteForce(t *testing.T) {
	for _, tbl := range []*table.Table{
		testTable(t, 500, []int{8, 6, 5, 4}, 1.0, 23),
		testTable(t, 3000, []int{700, 3, 300}, 1.5, 29),
	} {
		checkResidualBruteForce(t, tbl)
	}
}

func checkResidualBruteForce(t *testing.T, tbl *table.Table) {
	t.Helper()
	aux := auxColumn(tbl)
	if tbl.Cards[0] > 256 {
		wide := 0
		for _, row := range ComputeResidual(tbl.Cols, nil, 3, core.MeasureNone).Rows() {
			if row.Values[0] >= 256 {
				wide++
			}
		}
		if wide == 0 {
			t.Fatal("no residual row carries a code past 256")
		}
	}
	kinds := []core.MeasureKind{core.MeasureSum, core.MeasureMin, core.MeasureMax, core.MeasureAvg}
	for _, minsup := range []int64{0, 1, 2, 3, 5} {
		for _, kind := range kinds {
			res := ComputeResidual(tbl.Cols, aux, minsup, kind)
			if res == nil {
				t.Fatalf("minsup=%d kind=%v: ComputeResidual returned nil", minsup, kind)
			}
			if !res.HasAux() {
				t.Fatalf("minsup=%d kind=%v: residual built with aux must report HasAux", minsup, kind)
			}
			want := bruteResidual(tbl, minsup, kind)
			if minsup <= 1 && res.NumRows() != 0 {
				t.Fatalf("minsup=%d: %d residual rows, want 0 (nothing pruned)", minsup, res.NumRows())
			}
			if res.NumRows() != len(want) {
				t.Fatalf("minsup=%d kind=%v: %d residual rows, brute force has %d", minsup, kind, res.NumRows(), len(want))
			}
			var prev []byte
			key := make([]byte, 0, tbl.NumDims()*core.ValueWidth)
			for _, row := range res.Rows() {
				key = key[:0]
				for _, v := range row.Values {
					key = core.AppendValue(key, v)
				}
				if prev != nil && bytes.Compare(prev, key) >= 0 {
					t.Fatalf("minsup=%d kind=%v: residual rows not strictly sorted", minsup, kind)
				}
				prev = append(prev[:0], key...)
				w, ok := want[string(key)]
				if !ok {
					t.Fatalf("minsup=%d kind=%v: unexpected residual row %v", minsup, kind, row.Values)
				}
				if row.Count != w.Count || row.Aux != w.Aux {
					t.Fatalf("minsup=%d kind=%v row %v: got (count %d, aux %v), want (%d, %v)",
						minsup, kind, row.Values, row.Count, row.Aux, w.Count, w.Aux)
				}
			}
		}
	}
	// Without an aux column the residual carries counts only.
	res := ComputeResidual(tbl.Cols, nil, 3, core.MeasureNone)
	if res.HasAux() {
		t.Fatal("residual built without aux must not report HasAux")
	}
	if res.NumRows() != len(bruteResidual(tbl, 3, core.MeasureNone)) {
		t.Fatal("aux-free residual row count diverges from brute force")
	}
}

// buildWithResidual computes the closed iceberg cube of tbl at minsup with
// per-cell stored measure aggregates of kind (derived by brute force, so the
// store's contents are engine-independent) and attaches the matching residual.
func buildWithResidual(t testing.TB, tbl *table.Table, minsup int64, kind core.MeasureKind) *Store {
	t.Helper()
	col := &sink.Collector{}
	if err := qcdfs.Engine.Run(tbl, engine.Config{MinSup: minsup, Closed: true}, col); err != nil {
		t.Fatal(err)
	}
	aux := auxColumn(tbl)
	b := NewBuilder(tbl.NumDims(), true)
	for _, c := range col.Cells {
		a := core.StoredIdentity(kind)
		for tid := 0; tid < tbl.NumTuples(); tid++ {
			match := true
			for d, v := range c.Values {
				if v != core.Star && tbl.Cols[d][tid] != v {
					match = false
					break
				}
			}
			if match {
				a = core.CombineStored(kind, a, aux[tid])
			}
		}
		b.Add(c.Values, c.Count, a)
	}
	if err := b.SetResidual(ComputeResidual(tbl.Cols, aux, minsup, kind)); err != nil {
		t.Fatal(err)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasResidual() {
		t.Fatal("built store lost its residual")
	}
	return s
}

// TestAggregateResidualExact is the store-layer exactness contract: an iceberg
// store carrying its residual answers Aggregate identically — counts, measure
// values, row order — to a min_sup-1 store over the same relation, for every
// measure kind and random specs/group-bys.
func TestAggregateResidualExact(t *testing.T) {
	tbl := testTable(t, 600, []int{7, 6, 5, 4}, 1.1, 31)
	cases := []struct {
		kind core.MeasureKind
		agg  AuxAgg
	}{
		{core.MeasureSum, AuxSum},
		{core.MeasureMin, AuxMin},
		{core.MeasureMax, AuxMax},
		{core.MeasureAvg, AuxSum}, // avg stores running sums; sums merge
	}
	for _, tc := range cases {
		iceberg := buildWithResidual(t, tbl, 3, tc.kind)
		oracle := buildWithResidual(t, tbl, 1, tc.kind)
		if iceberg.ResidualRows() == 0 {
			t.Fatalf("kind=%v: iceberg residual is empty — test table prunes nothing", tc.kind)
		}
		rng := rand.New(rand.NewSource(7 + int64(tc.kind)))
		for i := 0; i < 120; i++ {
			spec := randomSpec(rng, tbl.Cards)
			var groupBy []int
			for d := 0; d < tbl.NumDims(); d++ {
				if rng.Intn(3) == 0 {
					groupBy = append(groupBy, d)
				}
			}
			opt := AggOptions{GroupBy: groupBy, AuxAgg: tc.agg}
			if rng.Intn(2) == 0 {
				opt.By = ByAux
			}
			got := iceberg.Aggregate(spec, opt)
			want := oracle.Aggregate(spec, opt)
			if len(got) != len(want) {
				t.Fatalf("kind=%v spec %v group-by %v: %d rows, oracle has %d",
					tc.kind, spec.Preds, groupBy, len(got), len(want))
			}
			for j := range got {
				g, w := got[j], want[j]
				if g.Count != w.Count || g.Aux != w.Aux {
					t.Fatalf("kind=%v spec %v group-by %v row %d: got (%v, count %d, aux %v), want (%v, %d, %v)",
						tc.kind, spec.Preds, groupBy, j, g.Values, g.Count, g.Aux, w.Values, w.Count, w.Aux)
				}
				for d := range g.Values {
					if g.Values[d] != w.Values[d] {
						t.Fatalf("kind=%v row %d: group %v, oracle %v", tc.kind, j, g.Values, w.Values)
					}
				}
			}
		}
	}
}

// TestResidualSnapshotRoundTrip checks that a residual-carrying store
// round-trips byte-identically and keeps answering exactly.
func TestResidualSnapshotRoundTrip(t *testing.T) {
	tbl := testTable(t, 400, []int{6, 5, 4}, 0.9, 41)
	s := buildWithResidual(t, tbl, 3, core.MeasureSum)
	var buf1 bytes.Buffer
	if err := s.Save(&buf1); err != nil {
		t.Fatal(err)
	}
	if got := buf1.Bytes()[7]; got != SnapshotVersion {
		t.Fatalf("residual-carrying snapshot has version byte %d, want %d", got, SnapshotVersion)
	}
	loaded, err := openCopy(buf1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.HasResidual() {
		t.Fatal("residual lost across Save/Load")
	}
	if loaded.ResidualRows() != s.ResidualRows() {
		t.Fatalf("loaded %d residual rows, saved %d", loaded.ResidualRows(), s.ResidualRows())
	}
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("residual snapshot not byte-identical after round trip (%d vs %d bytes)", buf1.Len(), buf2.Len())
	}
	a, b := s.Residual().Rows(), loaded.Residual().Rows()
	for i := range a {
		if a[i].Count != b[i].Count || a[i].Aux != b[i].Aux {
			t.Fatalf("residual row %d diverges after round trip", i)
		}
	}
	// The loaded store must keep the exactness property, not just the bytes.
	spec := Spec{Preds: make([]Pred, tbl.NumDims())}
	got := loaded.Aggregate(spec, AggOptions{GroupBy: []int{0, 1}})
	want := s.Aggregate(spec, AggOptions{GroupBy: []int{0, 1}})
	if len(got) != len(want) {
		t.Fatalf("loaded store aggregate has %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Count != want[i].Count || got[i].Aux != want[i].Aux {
			t.Fatalf("loaded store aggregate row %d diverges", i)
		}
	}
}

// TestResidualSnapshotLegacyByteIdentity pins the single-version contract from
// both sides. A store built without a residual is written in the current
// version — its residual section says "absent" — loads without one, and
// round-trips byte-identically. The legacy version bytes (1: no residual
// section; 2: residual section without the presence byte; 3: the varint
// stream) are rejected with a descriptive error rather than parsed.
func TestResidualSnapshotLegacyByteIdentity(t *testing.T) {
	tbl := testTable(t, 300, []int{5, 4, 3}, 0.6, 13)
	s := buildFromClosed(t, tbl, 3)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[7]; got != SnapshotVersion {
		t.Fatalf("residual-free snapshot has version byte %d, want %d", got, SnapshotVersion)
	}
	loaded, err := openCopy(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.HasResidual() {
		t.Fatal("residual-free snapshot must load without a residual")
	}
	if loaded.ResidualRows() != 0 || loaded.Residual() != nil {
		t.Fatal("residual accessors must report absence")
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("residual-free snapshot not byte-identical after round trip (%d vs %d bytes)", buf.Len(), again.Len())
	}
	for _, v := range []byte{1, 2, 3} {
		old := append([]byte(nil), buf.Bytes()...)
		old[7] = v
		_, err := openCopy(old)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported snapshot version %d", v)) {
			t.Fatalf("version %d: err %v, want an unsupported-version error", v, err)
		}
	}
}

// TestResidualSnapshotEveryByteFlip extends the single-byte-flip guarantee to
// the residual section: every mutation of a residual-carrying snapshot must
// fail Open.
func TestResidualSnapshotEveryByteFlip(t *testing.T) {
	tbl := testTable(t, 150, []int{5, 4, 3}, 0.8, 19)
	rejectEveryCorruption(t, storeBytes(t, buildWithResidual(t, tbl, 3, core.MeasureSum)))
}

// TestSpliceResidual checks the residual's key splice: old rows whose key is
// among the delta's keys are dropped, fresh rows are taken in key order, a
// fresh row no key names is rejected, and a nil old residual is fine.
func TestSpliceResidual(t *testing.T) {
	// Rows (1,1)x1 sum 2 and (3,0)x2 sum 4; then (0,5)x1 sum 1 and (2,2)x1 sum 9.
	a := ComputeResidual(core.Columns{{3, 1, 3}, {0, 1, 0}}, []float64{1, 2, 3}, 3, core.MeasureSum)
	b := ComputeResidual(core.Columns{{2, 0}, {2, 5}}, []float64{9, 1}, 3, core.MeasureSum)
	keys := [][]byte{b.key(0), b.key(1), a.key(1)} // (0,5), (2,2), (3,0)
	m, err := spliceResidual(2, true, a, b, keys)
	if err != nil {
		t.Fatal(err)
	}
	rows := m.Rows()
	want := []ResidualRow{{[]core.Value{0, 5}, 1, 1}, {[]core.Value{1, 1}, 1, 2}, {[]core.Value{2, 2}, 1, 9}}
	if len(rows) != len(want) {
		t.Fatalf("spliced %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if !slices.Equal(r.Values, want[i].Values) || r.Count != want[i].Count || r.Aux != want[i].Aux {
			t.Fatalf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
	if _, err := spliceResidual(2, true, a, b, keys[:1]); err == nil {
		t.Fatal("a fresh row no key names must fail")
	}
	onlyB, err := spliceResidual(2, true, nil, b, keys)
	if err != nil || onlyB.NumRows() != b.NumRows() {
		t.Fatalf("nil old residual must pass the fresh rows through, got (%d rows, %v)", onlyB.NumRows(), err)
	}
}

// TestMergeDeltaResidual checks the refresh path end to end at the store
// layer: re-applying one partition's tuples as a delta, with the cells they
// match and the residual at their keys freshly recomputed, yields the same
// residual — and the same exact aggregates — as the store it started from.
func TestMergeDeltaResidual(t *testing.T) {
	const minsup = 3
	tbl := testTable(t, 500, []int{5, 6, 4}, 1.0, 47)
	s := buildWithResidual(t, tbl, minsup, core.MeasureSum)

	// The delta: every tuple of partition dim0 == 1, its data unchanged.
	// MergeDelta drops every cell a delta row matches, so fresh carries the
	// relation's cells those rows match (as a refresh's delta pass does), with
	// brute-force stored sums.
	var delta []core.Value
	var subRows [][]core.Value
	var subAux []float64
	for tid := 0; tid < tbl.NumTuples(); tid++ {
		if tbl.Cols[0][tid] == 1 {
			row := tbl.Row(core.TID(tid), nil)
			delta = append(delta, row...)
			subRows = append(subRows, row)
			subAux = append(subAux, tupleAux(tbl, tid))
		}
	}
	if len(subRows) == 0 {
		t.Fatal("test table has no tuples in the replaced partition")
	}
	col := &sink.Collector{}
	if err := qcdfs.Engine.Run(tbl, engine.Config{MinSup: minsup, Closed: true}, col); err != nil {
		t.Fatal(err)
	}
	var fresh []core.Cell
	for _, c := range col.Cells {
		if !matchedBy(delta, c.Values) {
			continue
		}
		a := core.StoredIdentity(core.MeasureSum)
		for tid := 0; tid < tbl.NumTuples(); tid++ {
			match := true
			for d, v := range c.Values {
				if v != core.Star && tbl.Cols[d][tid] != v {
					match = false
					break
				}
			}
			if match {
				a = core.CombineStored(core.MeasureSum, a, tupleAux(tbl, tid))
			}
		}
		fresh = append(fresh, core.Cell{Values: c.Values, Count: c.Count, Aux: a})
	}
	// The fresh residual comes from the delta's partition alone: residual rows
	// fix every dimension, so the rows at the delta's keys are exactly that
	// partition's groups.
	sub, err := table.FromRows(subRows)
	if err != nil {
		t.Fatal(err)
	}
	freshRes := ComputeResidual(sub.Cols, subAux, minsup, core.MeasureSum)

	merged, err := s.MergeDelta(delta, freshBuilder(tbl.NumDims(), true, fresh...), freshRes)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.HasResidual() {
		t.Fatal("merge with freshRes must carry a residual")
	}
	// The residual is engine-independent: merging the recomputed rows must
	// reproduce the full-relation residual exactly.
	wantRows := s.Residual().Rows()
	gotRows := merged.Residual().Rows()
	if len(gotRows) != len(wantRows) {
		t.Fatalf("merged residual has %d rows, want %d", len(gotRows), len(wantRows))
	}
	for i := range gotRows {
		if gotRows[i].Count != wantRows[i].Count || gotRows[i].Aux != wantRows[i].Aux {
			t.Fatalf("merged residual row %d: got (count %d, aux %v), want (%d, %v)",
				i, gotRows[i].Count, gotRows[i].Aux, wantRows[i].Count, wantRows[i].Aux)
		}
		for d := range gotRows[i].Values {
			if gotRows[i].Values[d] != wantRows[i].Values[d] {
				t.Fatalf("merged residual row %d key diverges: %v vs %v", i, gotRows[i].Values, wantRows[i].Values)
			}
		}
	}
	// Dropping freshRes must drop the residual — honesty over optimism.
	bare, err := s.MergeDelta(delta, freshBuilder(tbl.NumDims(), true, fresh...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bare.HasResidual() {
		t.Fatal("merge without freshRes must not claim a residual")
	}
	// And the merged store's aggregates stay exact against the original.
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 60; i++ {
		spec := randomSpec(rng, tbl.Cards)
		opt := AggOptions{GroupBy: []int{rng.Intn(tbl.NumDims())}, AuxAgg: AuxSum}
		got := merged.Aggregate(spec, opt)
		want := s.Aggregate(spec, opt)
		if len(got) != len(want) {
			t.Fatalf("merged aggregate has %d rows, want %d", len(got), len(want))
		}
		for j := range got {
			if got[j].Count != want[j].Count || got[j].Aux != want[j].Aux {
				t.Fatalf("merged aggregate row %d diverges: (%d,%v) vs (%d,%v)",
					j, got[j].Count, got[j].Aux, want[j].Count, want[j].Aux)
			}
		}
	}
}

// Test-side views of a residual: production code reads the columns in place.

// ResidualRow is one materialized sub-threshold base cell.
type ResidualRow struct {
	Values []core.Value
	Count  int64
	Aux    float64 // stored measure aggregate (avg: the running sum)
}

// HasAux reports whether rows carry a stored measure aggregate.
func (r *Residual) HasAux() bool { return r.hasAux }

// Rows materializes every residual row (key order, freshly allocated).
func (r *Residual) Rows() []ResidualRow {
	out := make([]ResidualRow, r.NumRows())
	vals := make([]core.Value, r.NumRows()*r.nd)
	for i := range out {
		row := vals[i*r.nd : (i+1)*r.nd : (i+1)*r.nd]
		for d, col := range r.cols {
			row[d] = col[i]
		}
		out[i] = ResidualRow{Values: row, Count: r.counts[i], Aux: r.auxAt(i)}
	}
	return out
}

// Residual returns the attached residual summary, or nil.
func (s *Store) Residual() *Residual { return s.res }

// key returns row i's full-width packed key.
func (r *Residual) key(i int) []byte {
	var key []byte
	for _, col := range r.cols {
		key = core.AppendValue(key, col[i])
	}
	return key
}

// subset returns the rows keep accepts, in order.
func (r *Residual) subset(keep func(row int) bool) *Residual {
	out := newResidual(r.nd, r.hasAux, 0)
	for i := 0; i < r.NumRows(); i++ {
		if keep(i) {
			out.takeRun(r, i, i+1)
		}
	}
	return out
}
