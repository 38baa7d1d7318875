package ccubing

// Tests for deletions and updates in the live refresh path: the facade
// mirror of internal/refresh's tombstone tests. The load-bearing property
// is unchanged from appends — after any interleaving of appends, deletes
// and updates, the refreshed cube is byte-identical to a from-scratch
// Materialize of the edited relation — plus the serving contracts: static
// cubes reject mutations, NDJSON tombstone streaming, and generation-
// consistent answers while deletes race queries.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// editedRow is one live tuple of the test-side model: values plus measure.
type editedRow struct {
	vals []int32
	aux  float64
}

// TestDeleteUpdateMatchesMaterialize is the tentpole acceptance criterion at
// the facade layer: random interleavings of AppendValues/Delete/Update,
// refreshed, match a from-scratch Materialize of the edited relation byte
// for byte — at minsup 1 and on iceberg cubes, without a measure and with
// each measure kind (a deleted minimum or maximum must be refolded, not
// patched). Measure values are multiples of 1/8, so sums are exact in any
// order.
func TestDeleteUpdateMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cards := []int{6, 5, 4}
	for _, minsup := range []int64{1, 4} {
		for _, kind := range []MeasureKind{MeasureNone, MeasureSum, MeasureMin, MeasureMax, MeasureAvg} {
			withAux := kind != MeasureNone
			for trial := 0; trial < 4; trial++ {
				live := make([]editedRow, 0, 500)
				for i := 0; i < 350+rng.Intn(150); i++ {
					row := make([]int32, len(cards))
					for d := range cards {
						row[d] = int32(rng.Intn(cards[d]))
					}
					live = append(live, editedRow{vals: row, aux: float64(rng.Intn(1000)) / 8})
				}
				cube := materializeRows(t, live, kind, minsup)

				nOps := 3 + rng.Intn(3)
				for op := 0; op < nOps; op++ {
					k := 3 + rng.Intn(12)
					switch rng.Intn(3) {
					case 0: // append
						rows := make([][]int32, k)
						var aux []float64
						for j := range rows {
							row := make([]int32, len(cards))
							row[0] = int32(rng.Intn(cards[0] + 1)) // occasionally a new partition
							for d := 1; d < len(cards); d++ {
								row[d] = int32(rng.Intn(cards[d]))
							}
							rows[j] = row
							a := float64(rng.Intn(1000)) / 8
							if withAux {
								aux = append(aux, a)
							}
							live = append(live, editedRow{vals: row, aux: a})
						}
						if _, err := cube.AppendValues(rows, aux); err != nil {
							t.Fatal(err)
						}
					case 1: // delete
						rows := make([][]int32, 0, k)
						var aux []float64
						for j := 0; j < k && len(live) > 0; j++ {
							i := rng.Intn(len(live))
							rows = append(rows, live[i].vals)
							if withAux {
								aux = append(aux, live[i].aux)
							}
							live = append(live[:i], live[i+1:]...)
						}
						if _, err := cube.Delete(rows, aux); err != nil {
							t.Fatal(err)
						}
					case 2: // update
						olds := make([][]int32, 0, k)
						news := make([][]int32, 0, k)
						var oldAux, newAux []float64
						for j := 0; j < k && len(live) > 0; j++ {
							i := rng.Intn(len(live))
							olds = append(olds, live[i].vals)
							if withAux {
								oldAux = append(oldAux, live[i].aux)
							}
							live = append(live[:i], live[i+1:]...)
							row := make([]int32, len(cards))
							for d := range cards {
								row[d] = int32(rng.Intn(cards[d]))
							}
							a := float64(rng.Intn(1000)) / 8
							news = append(news, row)
							if withAux {
								newAux = append(newAux, a)
							}
							live = append(live, editedRow{vals: row, aux: a})
						}
						if _, err := cube.Update(olds, news, oldAux, newAux); err != nil {
							t.Fatal(err)
						}
					}
				}
				if _, err := cube.Refresh(); err != nil {
					t.Fatal(err)
				}
				want := materializeRows(t, live, kind, minsup)
				if !bytes.Equal(refreshStoreBytes(t, cube), refreshStoreBytes(t, want)) {
					t.Fatalf("minsup=%d measure=%v trial=%d: edited store differs from from-scratch materialize (%d vs %d cells)",
						minsup, kind, trial, cube.NumCells(), want.NumCells())
				}
				if cube.SourceRows() != int64(len(live)) {
					t.Fatalf("source rows = %d, want %d", cube.SourceRows(), len(live))
				}
			}
		}
	}
}

func materializeRows(t *testing.T, rows []editedRow, kind MeasureKind, minsup int64) *Cube {
	t.Helper()
	vals := make([][]int32, len(rows))
	aux := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = r.vals
		aux[i] = r.aux
	}
	ds, err := NewDatasetFromValues(nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MinSup: minsup, Workers: 2, Measure: kind}
	if kind != MeasureNone {
		if err := ds.SetMeasure(aux); err != nil {
			t.Fatal(err)
		}
	}
	cube, err := Materialize(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// TestDeletePartitionShrinksToEmpty removes every tuple of one leading-
// dimension partition through the facade: its cells vanish and the cube
// matches a rebuild of the smaller relation.
func TestDeletePartitionShrinksToEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	cards := []int{5, 4, 3}
	base := randomRows(rng, cards, 300, nil)
	ds, err := NewDatasetFromValues(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	victim := base[0][0]
	var dels, rest [][]int32
	for _, r := range base {
		if r[0] == victim {
			dels = append(dels, r)
		} else {
			rest = append(rest, r)
		}
	}
	if _, err := cube.Delete(dels, nil); err != nil {
		t.Fatal(err)
	}
	st, err := cube.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted != len(dels) {
		t.Fatalf("refresh stats = %+v, want %d deleted", st, len(dels))
	}
	if count, ok := cube.Query([]int32{victim, Star, Star}); ok {
		t.Fatalf("vanished partition still answers %d", count)
	}
	restDS, err := NewDatasetFromValues(nil, rest)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Materialize(restDS, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refreshStoreBytes(t, cube), refreshStoreBytes(t, want)) {
		t.Fatal("shrunk store differs from from-scratch materialize")
	}
}

// TestDeleteLabeled drives tombstones and updates by label, including an
// update that introduces a brand-new label, comparing the edited cube
// cell-by-cell (labels, counts) against a from-scratch build of the edited
// relation — label coding may legitimately differ, bytes may not be
// compared.
func TestDeleteLabeled(t *testing.T) {
	baseRows := [][]string{
		{"oslo", "pen"}, {"oslo", "ink"}, {"paris", "pen"},
		{"oslo", "pen"}, {"paris", "ink"}, {"rome", "pen"},
	}
	ds, err := NewDataset([]string{"city", "product"}, baseRows)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Unknown labels name tuples that never existed: a clear error.
	if _, err := cube.DeleteLabels([][]string{{"ghost", "pen"}}, nil); err == nil {
		t.Fatal("unknown-label delete must fail")
	}
	// Delete one of the two (oslo,pen) occurrences; update (rome,pen) to the
	// brand-new city bergen.
	if _, err := cube.DeleteLabels([][]string{{"oslo", "pen"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cube.UpdateLabels([][]string{{"rome", "pen"}}, [][]string{{"bergen", "pen"}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Refresh(); err != nil {
		t.Fatal(err)
	}
	edited := [][]string{
		{"oslo", "ink"}, {"paris", "pen"}, {"oslo", "pen"},
		{"paris", "ink"}, {"bergen", "pen"},
	}
	editedDS, err := NewDataset([]string{"city", "product"}, edited)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Materialize(editedDS, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	gotCells := labeledCellSet(t, cube)
	wantCells := labeledCellSet(t, want)
	if gotCells != wantCells {
		t.Fatalf("edited labeled cube differs from from-scratch build:\ngot  %s\nwant %s", gotCells, wantCells)
	}
	if count, ok, err := cube.QueryLabels([]string{"rome", "*"}); err != nil || ok || count != 0 {
		t.Fatalf("rome after update-away = (%d,%v,%v), want miss", count, ok, err)
	}
	if count, ok, err := cube.QueryLabels([]string{"bergen", "pen"}); err != nil || !ok || count != 1 {
		t.Fatalf("bergen = (%d,%v,%v), want 1", count, ok, err)
	}
}

// labeledCellSet canonicalizes a cube as sorted "label,...=count" lines.
func labeledCellSet(t *testing.T, c *Cube) string {
	t.Helper()
	var lines []string
	c.Cells(func(cell Cell) bool {
		lines = append(lines, fmt.Sprintf("%s=%d", strings.Join(c.Labels(cell.Values), ","), cell.Count))
		return true
	})
	sort.Strings(lines)
	return strings.Join(lines, ";")
}

// TestDeleteNDJSON streams tombstones in the shared NDJSON forms.
func TestDeleteNDJSON(t *testing.T) {
	cds, err := NewDatasetFromValues(nil, [][]int32{{0, 0}, {1, 1}, {0, 1}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cds.SetMeasure([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(cds, Options{MinSup: 1, Measure: MeasureSum})
	if err != nil {
		t.Fatal(err)
	}
	// Tombstones match on (values, aux): remove the aux=4 copy of (0,0).
	n, err := cube.DeleteNDJSON(strings.NewReader(`{"values":[0,0],"aux":4}` + "\n"))
	if err != nil || n != 1 {
		t.Fatalf("ndjson delete = (%d, %v), want 1 row", n, err)
	}
	if _, err := cube.Refresh(); err != nil {
		t.Fatal(err)
	}
	cell, ok := cube.Lookup([]int32{0, 0})
	if !ok || cell.Count != 1 || cell.Aux != 1 {
		t.Fatalf("cell (0,0) = (%+v,%v), want count 1 aux 1", cell, ok)
	}
	// A tombstone for a missing (values, aux) pair fails the stream.
	if _, err := cube.DeleteNDJSON(strings.NewReader(`{"values":[1,1],"aux":99}` + "\n")); err == nil {
		t.Fatal("tombstone with wrong aux must fail")
	}
}

// TestMutateStaticCube pins the static-cube contract for the new mutation
// surface: snapshot-loaded cubes reject deletes and updates like appends.
func TestMutateStaticCube(t *testing.T) {
	ds, err := NewDatasetFromValues(nil, [][]int32{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1})
	if err != nil {
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
	if _, err := loaded.Delete([][]int32{{0, 0}}, nil); err == nil {
		t.Fatal("delete on a static cube must fail")
	}
	if _, err := loaded.DeleteLabels([][]string{{"a", "b"}}, nil); err == nil {
		t.Fatal("labeled delete on a static cube must fail")
	}
	if _, err := loaded.Update([][]int32{{0, 0}}, [][]int32{{1, 0}}, nil, nil); err == nil {
		t.Fatal("update on a static cube must fail")
	}
	if _, err := loaded.UpdateLabels([][]string{{"a"}}, [][]string{{"b"}}, nil, nil); err == nil {
		t.Fatal("labeled update on a static cube must fail")
	}
	if _, err := loaded.DeleteNDJSON(strings.NewReader("[0,0]\n")); err == nil {
		t.Fatal("ndjson delete on a static cube must fail")
	}
}

// TestConcurrentQueriesDuringDeleteRefresh is the -race hammer the issue
// names: goroutines spin on Query and Aggregate while the main goroutine
// interleaves deletes (and appends) across generation swaps. Every answer
// must be consistent with exactly one generation — never a torn mix.
func TestConcurrentQueriesDuringDeleteRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	cards := []int{8, 5, 4}
	base := randomRows(rng, cards, 500, nil)

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
				q[d] = int32(rng.Intn(cards[d]))
			}
		}
		probes[i] = q
	}

	// Generations: start, then per chunk either an append batch or a delete
	// batch (sampled from the live rows). Record each generation's truth.
	rows := append([][]int32{}, base...)
	allowed := make([]map[int64]bool, nProbes)
	for i := range allowed {
		allowed[i] = map[int64]bool{brute(rows, probes[i]): true}
	}
	totals := map[int64]bool{int64(len(rows)): true}
	const chunks = 4
	type chunk struct {
		appends [][]int32
		deletes [][]int32
	}
	plan := make([]chunk, chunks)
	for k := range plan {
		if k%2 == 0 { // delete chunk
			dels := make([][]int32, 0, 60)
			for j := 0; j < 60 && len(rows) > 0; j++ {
				i := rng.Intn(len(rows))
				dels = append(dels, rows[i])
				rows = append(rows[:i], rows[i+1:]...)
			}
			plan[k].deletes = dels
		} else {
			app := randomRows(rng, cards, 50, []int32{int32(k % cards[0])})
			plan[k].appends = app
			rows = append(rows, app...)
		}
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
					rows, exact, err := cube.Aggregate(grandSpec, AggregateOptions{})
					if err != nil || len(rows) != 1 || !exact {
						fail("aggregate: %d rows, exact=%v, err %v", len(rows), exact, err)
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
	for _, c := range plan {
		if c.deletes != nil {
			if _, err := cube.Delete(c.deletes, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := cube.AppendValues(c.appends, nil); err != nil {
				t.Fatal(err)
			}
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
