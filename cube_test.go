package ccubing

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// cubeFuzzQueries draws random query cells over the dataset's domain, biased
// toward values that occur so hits, non-closed cells and misses all appear.
func cubeFuzzQueries(rng *rand.Rand, ds *Dataset, n int) [][]int32 {
	tb := ds.Table()
	out := make([][]int32, n)
	for i := range out {
		vals := make([]int32, tb.NumDims())
		for d := range vals {
			switch rng.Intn(3) {
			case 0:
				vals[d] = Star
			case 1:
				vals[d] = tb.Cols[d][rng.Intn(tb.NumTuples())]
			default:
				vals[d] = int32(rng.Intn(tb.Cards[d]))
			}
		}
		out[i] = vals
	}
	return out
}

// bruteCellCount counts matching tuples directly.
func bruteCellCount(ds *Dataset, vals []int32) int64 {
	tb := ds.Table()
	var n int64
	for tid := 0; tid < tb.NumTuples(); tid++ {
		ok := true
		for d, v := range vals {
			if v != Star && tb.Cols[d][tid] != v {
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

// TestCubeQueryFuzz checks Materialize + Query against recomputation: every
// iceberg cell of the plain (non-closed) cube — which includes the
// non-closed cells the store does not materialize — must resolve to its
// exact count, below-threshold and empty cells must miss, and random fuzzed
// cells must agree with direct tuple counting.
func TestCubeQueryFuzz(t *testing.T) {
	for _, minsup := range []int64{1, 4} {
		ds, err := Synthetic(SyntheticConfig{T: 900, Cards: []int{8, 7, 5, 6}, Skew: 1.1, Seed: 100 + minsup})
		if err != nil {
			t.Fatal(err)
		}
		cube, err := Materialize(ds, Options{MinSup: minsup})
		if err != nil {
			t.Fatal(err)
		}

		// Every cell of the full iceberg cube (closed or not) must answer.
		full, _, err := ComputeCollect(ds, Options{MinSup: minsup, Closed: false, Algorithm: AlgBUC})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(full)) < cube.NumCells() {
			t.Fatalf("iceberg cube smaller than closed cube (%d < %d)", len(full), cube.NumCells())
		}
		for _, c := range full {
			got, ok := cube.Query(c.Values)
			if !ok || got != c.Count {
				t.Fatalf("minsup=%d: iceberg cell %v: Query = (%d,%v), want (%d,true)",
					minsup, c.Values, got, ok, c.Count)
			}
		}

		// Fuzzed cells against direct recomputation, misses included.
		rng := rand.New(rand.NewSource(minsup))
		for _, q := range cubeFuzzQueries(rng, ds, 3000) {
			want := bruteCellCount(ds, q)
			got, ok := cube.Query(q)
			if want >= minsup {
				if !ok || got != want {
					t.Fatalf("minsup=%d: query %v = (%d,%v), want (%d,true)", minsup, q, got, ok, want)
				}
			} else if ok {
				t.Fatalf("minsup=%d: query %v = (%d,true), want miss (true count %d)", minsup, q, got, want)
			}
		}
	}
}

// TestCubeLookupClosure pins the closure semantics: Lookup returns a stored
// closed cell covering the query with the query's count.
func TestCubeLookupClosure(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{T: 500, Cards: []int{6, 5, 4}, Skew: 0.9, Dependence: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	closed := map[string]bool{}
	cube.Cells(func(c Cell) bool {
		closed[fmt.Sprint(c.Values)] = true
		return true
	})
	rng := rand.New(rand.NewSource(3))
	for _, q := range cubeFuzzQueries(rng, ds, 500) {
		cell, ok := cube.Lookup(q)
		if !ok {
			continue
		}
		if !closed[fmt.Sprint(cell.Values)] {
			t.Fatalf("Lookup(%v) returned non-stored cell %v", q, cell.Values)
		}
		for d, v := range q {
			if v != Star && cell.Values[d] != v {
				t.Fatalf("closure %v does not cover query %v", cell.Values, q)
			}
		}
		if want := bruteCellCount(ds, q); cell.Count != want {
			t.Fatalf("Lookup(%v).Count = %d, want %d", q, cell.Count, want)
		}
	}
}

// TestCubeMeasure checks Materialize's measure plumbing (attachMeasure
// post-pass) against per-cell recomputation.
func TestCubeMeasure(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{T: 400, Cards: []int{6, 5, 4}, Skew: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	aux := make([]float64, ds.NumTuples())
	for i := range aux {
		aux[i] = float64(i%13) - 4
	}
	if err := ds.SetMeasure(aux); err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 2, Algorithm: AlgStar, Measure: MeasureSum})
	if err != nil {
		t.Fatal(err)
	}
	if !cube.HasMeasure() {
		t.Fatal("cube should carry a measure")
	}
	tb := ds.Table()
	checked := 0
	cube.Cells(func(c Cell) bool {
		var want float64
		for tid := 0; tid < tb.NumTuples(); tid++ {
			ok := true
			for d, v := range c.Values {
				if v != Star && tb.Cols[d][tid] != v {
					ok = false
					break
				}
			}
			if ok {
				want += tb.Aux[tid]
			}
		}
		if c.Aux != want {
			t.Errorf("cell %v: aux %g, want %g", c.Values, c.Aux, want)
			return false
		}
		checked++
		return true
	})
	if checked == 0 {
		t.Fatal("no cells checked")
	}
}

// TestCubeSnapshotRoundTrip checks Save → Load → Save byte identity, and
// that the loaded cube (including dictionaries) answers the same queries.
func TestCubeSnapshotRoundTrip(t *testing.T) {
	rows := [][]string{}
	cities := []string{"amsterdam", "berlin", "cadiz"}
	products := []string{"widget", "gadget"}
	years := []string{"2023", "2024", "2025"}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 400; i++ {
		rows = append(rows, []string{
			cities[rng.Intn(len(cities))],
			products[rng.Intn(len(products))],
			years[rng.Intn(len(years))],
		})
	}
	ds, err := NewDataset([]string{"city", "product", "year"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 2})
	if err != nil {
		t.Fatal(err)
	}

	var buf1 bytes.Buffer
	if err := cube.Save(&buf1); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCube(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("snapshot not byte-identical after round trip (%d vs %d bytes)", buf1.Len(), buf2.Len())
	}
	if loaded.NumCells() != cube.NumCells() || loaded.MinSup() != cube.MinSup() ||
		loaded.Algorithm() != cube.Algorithm() || !loaded.Labeled() {
		t.Fatalf("loaded cube metadata mismatch")
	}

	// Same answers, by code and by label.
	for _, q := range cubeFuzzQueries(rng, ds, 800) {
		c1, ok1 := cube.Query(q)
		c2, ok2 := loaded.Query(q)
		if ok1 != ok2 || c1 != c2 {
			t.Fatalf("query %v: original (%d,%v), loaded (%d,%v)", q, c1, ok1, c2, ok2)
		}
	}
	for _, labels := range [][]string{
		{"amsterdam", "*", "*"},
		{"berlin", "widget", "2024"},
		{"*", "gadget", "*"},
		{"never-seen", "*", "*"},
	} {
		c1, ok1, err1 := cube.QueryLabels(labels)
		c2, ok2, err2 := loaded.QueryLabels(labels)
		if err1 != nil || err2 != nil {
			t.Fatalf("label query %v: %v / %v", labels, err1, err2)
		}
		if ok1 != ok2 || c1 != c2 {
			t.Fatalf("label query %v: original (%d,%v), loaded (%d,%v)", labels, c1, ok1, c2, ok2)
		}
		if labels[0] != "never-seen" {
			want := bruteCellCount(ds, mustParse(t, cube, labels))
			if want >= 2 && (c1 != want || !ok1) {
				t.Fatalf("label query %v: (%d,%v), want (%d,true)", labels, c1, ok1, want)
			}
		}
	}
	if _, ok, _ := loaded.QueryLabels([]string{"never-seen", "*", "*"}); ok {
		t.Fatal("unknown label must miss")
	}
	if _, _, err := loaded.QueryLabels([]string{"*"}); err == nil {
		t.Fatal("wrong-arity label query must error")
	}
}

// TestCubeSnapshotEveryByteFlip mirrors the cubestore-level flip test at the
// cube layer (header + dictionaries + padding + store payload): every
// single-byte mutation, every truncation and a trailing byte must produce a
// load error, never a panic or a silently-wrong cube. Two header lengths, so
// that one snapshot has padding before its header checksum and one has none.
func TestCubeSnapshotEveryByteFlip(t *testing.T) {
	for _, pad := range []int{0, 3} {
		raw := cubeBytes(t, labeledCube(t, pad))
		for i := range raw {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 0xff
			if _, err := LoadCube(bytes.NewReader(mut)); err == nil {
				t.Fatalf("flipped byte %d of %d accepted", i, len(raw))
			}
			if _, err := LoadCube(bytes.NewReader(raw[:i])); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", i, len(raw))
			}
		}
		if _, err := LoadCube(bytes.NewReader(append(raw, 0))); err == nil {
			t.Fatal("trailing byte accepted")
		}
	}
}

func mustParse(t *testing.T, c *Cube, labels []string) []int32 {
	t.Helper()
	vals, err := c.ParseCell(labels)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestCubeParseCellErrors pins the error taxonomy of label parsing.
func TestCubeParseCellErrors(t *testing.T) {
	ds, err := NewDataset([]string{"a", "b"}, [][]string{{"x", "y"}, {"x", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.ParseCell([]string{"x", "nope"}); !errors.Is(err, ErrUnknownLabel) {
		t.Fatalf("want ErrUnknownLabel, got %v", err)
	}
	coded, err := Synthetic(SyntheticConfig{T: 50, D: 2, C: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	codedCube, err := Materialize(coded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if codedCube.Labeled() {
		t.Fatal("synthetic cube should not be labeled")
	}
	if _, err := codedCube.ParseCell([]string{"0", "1"}); err == nil {
		t.Fatal("label parse on coded cube must error")
	}
}

// TestCubeSliceAndConcurrency drives Slice and concurrent Query through the
// facade; with -race this pins the concurrency-safety claim end to end.
func TestCubeSliceAndConcurrency(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{T: 700, Cards: []int{7, 6, 5}, Skew: 1.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Slice on a bound first dimension: every visited cell fixes it.
	q := []int32{0, Star, Star}
	n := 0
	cube.Slice(q, func(c Cell) bool {
		if c.Values[0] != 0 {
			t.Errorf("slice cell %v escapes the slice", c.Values)
			return false
		}
		n++
		return true
	})
	if n == 0 {
		t.Fatal("empty slice on a populated sub-cube")
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for _, q := range cubeFuzzQueries(rng, ds, 400) {
				want := bruteCellCount(ds, q)
				got, ok := cube.Query(q)
				if want >= 2 && (!ok || got != want) {
					t.Errorf("query %v = (%d,%v), want (%d,true)", q, got, ok, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
