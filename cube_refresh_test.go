package ccubing

// Tests for live cube refresh: delta ingestion, partition-scoped recompute,
// and the atomic snapshot swap. The load-bearing property is equivalence —
// a refreshed cube is byte-identical (same groups, keys, counts) to a
// from-scratch Materialize of the grown relation — plus the concurrency
// contract: queries racing a refresh always answer from exactly one
// generation.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// refreshStoreBytes canonicalizes the cube's published store (payload only,
// excluding the facade header whose generation legitimately differs between
// a refreshed cube and a from-scratch build).
func refreshStoreBytes(t testing.TB, c *Cube) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.snap().Store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomRows draws n coded rows; leading-dimension values are confined to
// lead when non-nil (the delta's touched partitions).
func randomRows(rng *rand.Rand, cards []int, n int, lead []int32) [][]int32 {
	rows := make([][]int32, n)
	for i := range rows {
		row := make([]int32, len(cards))
		if lead != nil {
			row[0] = lead[rng.Intn(len(lead))]
		} else {
			row[0] = int32(rng.Intn(cards[0]))
		}
		for d := 1; d < len(cards); d++ {
			row[d] = int32(rng.Intn(cards[d]))
		}
		rows[i] = row
	}
	return rows
}

// TestRefreshMatchesMaterialize is the acceptance criterion: for randomized
// relations and appended deltas, Refresh produces a store byte-identical to
// a from-scratch Materialize of the full relation, at minsup 1 and on
// iceberg cubes.
func TestRefreshMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cards := []int{7, 5, 4, 3}
	for _, minsup := range []int64{1, 4} {
		for trial := 0; trial < 5; trial++ {
			base := randomRows(rng, cards, 400, nil)
			// The delta touches two partitions, one possibly brand new.
			lead := []int32{int32(rng.Intn(cards[0])), int32(cards[0])}
			delta := randomRows(rng, cards, 60, lead)

			ds, err := NewDatasetFromValues(nil, base)
			if err != nil {
				t.Fatal(err)
			}
			cube, err := Materialize(ds, Options{MinSup: minsup, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !cube.Refreshable() || cube.Generation() != 0 {
				t.Fatalf("materialized cube: refreshable=%v generation=%d", cube.Refreshable(), cube.Generation())
			}
			if _, err := cube.AppendValues(delta, nil); err != nil {
				t.Fatal(err)
			}
			if got := cube.Backlog(); got != len(delta) {
				t.Fatalf("backlog = %d, want %d", got, len(delta))
			}
			st, err := cube.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if st.Generation != 1 || st.Appended != len(delta) {
				t.Fatalf("refresh stats = %+v", st)
			}
			if st.PartitionsRecomputed >= st.PartitionsTotal {
				t.Fatalf("refresh was not partition-scoped: %d of %d", st.PartitionsRecomputed, st.PartitionsTotal)
			}

			fullDS, err := NewDatasetFromValues(nil, append(append([][]int32{}, base...), delta...))
			if err != nil {
				t.Fatal(err)
			}
			want, err := Materialize(fullDS, Options{MinSup: minsup, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refreshStoreBytes(t, cube), refreshStoreBytes(t, want)) {
				t.Fatalf("minsup=%d trial=%d: refreshed store differs from from-scratch materialize (%d vs %d cells)",
					minsup, trial, cube.NumCells(), want.NumCells())
			}
			if cube.SourceRows() != int64(fullDS.NumTuples()) {
				t.Fatalf("source rows = %d, want %d", cube.SourceRows(), fullDS.NumTuples())
			}
		}
	}
}

// TestRefreshLabeledNewLabels appends rows with labels the dictionaries have
// never seen: they are honest misses until the refresh publishes the grown
// dictionaries, and afterwards the cube matches a from-scratch build with
// identical label coding.
func TestRefreshLabeledNewLabels(t *testing.T) {
	baseRows := [][]string{
		{"oslo", "pen"}, {"oslo", "ink"}, {"paris", "pen"},
		{"oslo", "pen"}, {"paris", "ink"}, {"rome", "pen"},
	}
	delta := [][]string{
		{"berlin", "pen"}, {"berlin", "brush"}, {"oslo", "brush"},
	}
	ds, err := NewDataset([]string{"city", "product"}, baseRows)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Append(delta, nil); err != nil {
		t.Fatal(err)
	}
	// Pre-refresh: the new label is a provably-empty cell, not an error.
	if count, ok, err := cube.QueryLabels([]string{"berlin", "*"}); err != nil || ok || count != 0 {
		t.Fatalf("pre-refresh berlin = (%d,%v,%v), want miss", count, ok, err)
	}
	if _, err := cube.Refresh(); err != nil {
		t.Fatal(err)
	}
	if count, ok, err := cube.QueryLabels([]string{"berlin", "*"}); err != nil || !ok || count != 2 {
		t.Fatalf("post-refresh berlin = (%d,%v,%v), want (2,true)", count, ok, err)
	}

	fullDS, err := NewDataset([]string{"city", "product"}, append(append([][]string{}, baseRows...), delta...))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Materialize(fullDS, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refreshStoreBytes(t, cube), refreshStoreBytes(t, want)) {
		t.Fatal("refreshed labeled store differs from from-scratch materialize")
	}
	// Dictionaries must have coded the delta's labels identically.
	for d := range cube.snap().Dicts {
		got := strings.Join(cube.snap().Dicts[d].Names(), ",")
		exp := strings.Join(want.snap().Dicts[d].Names(), ",")
		if got != exp {
			t.Fatalf("dimension %d dictionaries diverge: %q vs %q", d, got, exp)
		}
	}
}

// TestRefreshWithMeasure checks the complex-measure post-pass on the refresh
// path: aux values of retained and rebuilt cells match a from-scratch build
// bit for bit.
func TestRefreshWithMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cards := []int{6, 4, 3}
	base := randomRows(rng, cards, 300, nil)
	delta := randomRows(rng, cards, 40, []int32{2})
	baseAux := make([]float64, len(base))
	for i := range baseAux {
		baseAux[i] = float64(rng.Intn(1000)) / 8
	}
	deltaAux := make([]float64, len(delta))
	for i := range deltaAux {
		deltaAux[i] = float64(rng.Intn(1000)) / 8
	}

	ds, err := NewDatasetFromValues(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetMeasure(baseAux); err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 2, Measure: MeasureSum})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.AppendValues(delta, deltaAux); err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Refresh(); err != nil {
		t.Fatal(err)
	}

	fullDS, err := NewDatasetFromValues(nil, append(append([][]int32{}, base...), delta...))
	if err != nil {
		t.Fatal(err)
	}
	if err := fullDS.SetMeasure(append(append([]float64{}, baseAux...), deltaAux...)); err != nil {
		t.Fatal(err)
	}
	want, err := Materialize(fullDS, Options{MinSup: 2, Measure: MeasureSum})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refreshStoreBytes(t, cube), refreshStoreBytes(t, want)) {
		t.Fatal("refreshed measure store differs from from-scratch materialize")
	}
}

// TestRefreshMeasureResidualExact drives the full native-measure refresh
// path on an avg iceberg cube: the refreshed store (stored running sums plus
// the residual of the recomputed partitions) is byte-identical to a
// from-scratch build, and post-refresh aggregates stay exact — equal to a
// MinSup-1 materialization of the grown relation.
func TestRefreshMeasureResidualExact(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	cards := []int{6, 5, 4}
	base := randomRows(rng, cards, 350, nil)
	delta := randomRows(rng, cards, 50, []int32{1, int32(cards[0])})
	// Integer aux keeps float sums exact, so equality can be byte-strict.
	baseAux := make([]float64, len(base))
	for i := range baseAux {
		baseAux[i] = float64(rng.Intn(40) - 10)
	}
	deltaAux := make([]float64, len(delta))
	for i := range deltaAux {
		deltaAux[i] = float64(rng.Intn(40) - 10)
	}

	ds, err := NewDatasetFromValues(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetMeasure(baseAux); err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 3, Measure: MeasureAvg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.AppendValues(delta, deltaAux); err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !cube.snap().Store.HasResidual() {
		t.Fatal("refresh dropped the residual")
	}

	fullRows := append(append([][]int32{}, base...), delta...)
	fullAux := append(append([]float64{}, baseAux...), deltaAux...)
	fullDS, err := NewDatasetFromValues(nil, fullRows)
	if err != nil {
		t.Fatal(err)
	}
	if err := fullDS.SetMeasure(fullAux); err != nil {
		t.Fatal(err)
	}
	want, err := Materialize(fullDS, Options{MinSup: 3, Measure: MeasureAvg})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refreshStoreBytes(t, cube), refreshStoreBytes(t, want)) {
		t.Fatal("refreshed avg store (cells + residual) differs from from-scratch materialize")
	}

	// Exactness after refresh: identical to a lossless MinSup-1 cube.
	oracle, err := Materialize(fullDS, Options{MinSup: 1, Measure: MeasureAvg})
	if err != nil {
		t.Fatal(err)
	}
	names := fullDS.Names()
	for i := 0; i < 40; i++ {
		spec := randomFacadeSpec(rng, cards)
		groupBy := []string{names[rng.Intn(len(names))]}
		got, exact, err := cube.Aggregate(spec, AggregateOptions{GroupBy: groupBy})
		if err != nil {
			t.Fatal(err)
		}
		if !exact {
			t.Fatalf("spec %d: refreshed iceberg cube must stay exact", i)
		}
		wantRows, _, err := oracle.Aggregate(spec, AggregateOptions{GroupBy: groupBy})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantRows) {
			t.Fatalf("spec %d: %d rows, oracle has %d", i, len(got), len(wantRows))
		}
		for j := range got {
			if got[j].Count != wantRows[j].Count || got[j].Aux != wantRows[j].Aux {
				t.Fatalf("spec %d row %d: refreshed %+v, oracle %+v", i, j, got[j], wantRows[j])
			}
		}
	}
}

// TestRefreshSnapshotMetadata round-trips generation and source-row count
// through the version-2 snapshot format.
func TestRefreshSnapshotMetadata(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cards := []int{5, 4, 3}
	ds, err := NewDatasetFromValues(nil, randomRows(rng, cards, 200, nil))
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.AppendValues(randomRows(rng, cards, 20, []int32{1}), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Refresh(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCube(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Generation() != 1 || loaded.SourceRows() != 220 {
		t.Fatalf("loaded generation=%d rows=%d, want 1/220", loaded.Generation(), loaded.SourceRows())
	}
	if loaded.Refreshable() {
		t.Fatal("snapshot-loaded cube must be static")
	}
	if _, err := loaded.AppendValues([][]int32{{0, 0, 0}}, nil); err == nil {
		t.Fatal("append on a static cube must fail")
	}
	// Save → Load → Save stays byte-identical under the v2 header.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("v2 snapshot not byte-identical after round trip")
	}
}

// TestAppendNDJSON drives the streamed ingestion forms: label arrays on a
// labeled cube, value arrays and aux objects on a coded measure cube.
func TestAppendNDJSON(t *testing.T) {
	ds, err := NewDataset([]string{"a", "b"}, [][]string{{"x", "u"}, {"y", "v"}, {"x", "v"}})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := cube.AppendNDJSON(strings.NewReader("[\"x\",\"u\"]\n\n[\"z\",\"u\"]\n"))
	if err != nil || n != 2 {
		t.Fatalf("ndjson append = (%d, %v), want 2 rows", n, err)
	}
	if _, err := cube.Refresh(); err != nil {
		t.Fatal(err)
	}
	if count, ok, err := cube.QueryLabels([]string{"x", "u"}); err != nil || !ok || count != 2 {
		t.Fatalf("x,u = (%d,%v,%v), want 2", count, ok, err)
	}
	if count, ok, err := cube.QueryLabels([]string{"z", "*"}); err != nil || !ok || count != 1 {
		t.Fatalf("z,* = (%d,%v,%v), want 1", count, ok, err)
	}
	// Malformed line: rows before it stay appended, the error names the line.
	if _, err := cube.AppendNDJSON(strings.NewReader("[\"x\",\"u\"]\n{oops\n")); err == nil {
		t.Fatal("malformed ndjson must fail")
	}

	// Coded cube with measure: object form carries aux.
	cds, err := NewDatasetFromValues(nil, [][]int32{{0, 0}, {1, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cds.SetMeasure([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ccube, err := Materialize(cds, Options{MinSup: 1, Measure: MeasureSum})
	if err != nil {
		t.Fatal(err)
	}
	n, err = ccube.AppendNDJSON(strings.NewReader(`{"values":[0,0],"aux":4.5}` + "\n" + `{"row":[1,0],"aux":0.5}` + "\n"))
	if err != nil || n != 2 {
		t.Fatalf("coded ndjson append = (%d, %v), want 2 rows", n, err)
	}
	if _, err := ccube.Refresh(); err != nil {
		t.Fatal(err)
	}
	cell, ok := ccube.Lookup([]int32{0, 0})
	if !ok || cell.Count != 2 || cell.Aux != 5.5 {
		t.Fatalf("cell (0,0) = (%+v,%v), want count 2 aux 5.5", cell, ok)
	}
}

// TestAutoRefreshRowThreshold exercises the facade trigger path end to end,
// including the write-ahead log option.
func TestAutoRefreshRowThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cards := []int{5, 4, 3}
	ds, err := NewDatasetFromValues(nil, randomRows(rng, cards, 150, nil))
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(t.TempDir(), "pending.wal")
	if err := cube.AutoRefresh(AutoRefreshOptions{Rows: 8, WAL: wal}); err != nil {
		t.Fatal(err)
	}
	defer cube.Close()
	if _, err := cube.AppendValues(randomRows(rng, cards, 5, []int32{0}), nil); err != nil {
		t.Fatal(err)
	}
	if cube.Generation() != 0 || cube.Backlog() != 5 {
		t.Fatalf("below threshold: generation=%d backlog=%d", cube.Generation(), cube.Backlog())
	}
	if _, err := cube.AppendValues(randomRows(rng, cards, 5, []int32{0}), nil); err != nil {
		t.Fatal(err)
	}
	if cube.Generation() != 1 || cube.Backlog() != 0 {
		t.Fatalf("at threshold: generation=%d backlog=%d", cube.Generation(), cube.Backlog())
	}
	m := cube.RefreshMetrics()
	if m.Refreshes != 1 || m.Last.Appended != 10 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestConcurrentQueriesDuringRefresh is the -race acceptance test: N
// goroutines hammer Query and Aggregate while the main goroutine swaps
// generations; every answer must be consistent with exactly one generation
// of the relation — never a torn mix.
func TestConcurrentQueriesDuringRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cards := []int{8, 5, 4}
	base := randomRows(rng, cards, 500, nil)
	const chunks = 4
	deltas := make([][][]int32, chunks)
	for k := range deltas {
		deltas[k] = randomRows(rng, cards, 40, []int32{int32(k % cards[0]), int32(cards[0] + k)})
	}

	// Per-generation ground truth for a probe set and for the grand total.
	brute := func(rows [][]int32, q []int32) int64 {
		var n int64
		for _, r := range rows {
			ok := true
			for d, v := range q {
				if v != Star && r[d] != v {
					ok = false
					break
				}
			}
			if ok {
				n++
			}
		}
		return n
	}
	const nProbes = 40
	probes := make([][]int32, nProbes)
	for i := range probes {
		q := make([]int32, len(cards))
		for d := range q {
			switch rng.Intn(3) {
			case 0:
				q[d] = Star
			default:
				q[d] = int32(rng.Intn(cards[d] + 1))
			}
		}
		probes[i] = q
	}
	allowed := make([]map[int64]bool, nProbes)
	totals := map[int64]bool{}
	rows := append([][]int32{}, base...)
	for i := range allowed {
		allowed[i] = map[int64]bool{brute(rows, probes[i]): true}
	}
	totals[int64(len(rows))] = true
	for _, d := range deltas {
		rows = append(rows, d...)
		for i := range allowed {
			allowed[i][brute(rows, probes[i])] = true
		}
		totals[int64(len(rows))] = true
	}

	ds, err := NewDatasetFromValues(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	grandSpec := make(QuerySpec, len(cards))

	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(format string, args ...any) {
		mu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
		mu.Unlock()
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(nProbes)
				count, ok := cube.Query(probes[i])
				if !ok {
					count = 0
				}
				if !allowed[i][count] {
					fail("query %v = %d, not any generation's count %v", probes[i], count, allowed[i])
					return
				}
				if rng.Intn(8) == 0 {
					rows, _, err := cube.Aggregate(grandSpec, AggregateOptions{})
					if err != nil || len(rows) != 1 {
						fail("aggregate: %v rows, err %v", len(rows), err)
						return
					}
					if !totals[rows[0].Count] {
						fail("grand total %d, not any generation's size %v", rows[0].Count, totals)
						return
					}
				}
			}
		}(int64(w))
	}
	for _, d := range deltas {
		if _, err := cube.AppendValues(d, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := cube.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if g := cube.Generation(); g != chunks {
		t.Fatalf("generation = %d, want %d", g, chunks)
	}
}
