package ccubing

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"ccubing/internal/algs"
	"ccubing/internal/refcube"
)

// collect runs ComputeCollect and fails the test on error.
func collect(t *testing.T, ds *Dataset, opt Options) ([]Cell, Stats) {
	t.Helper()
	cells, st, err := ComputeCollect(ds, opt)
	if err != nil {
		t.Fatalf("ComputeCollect(%+v): %v", opt, err)
	}
	return cells, st
}

// cellSet canonicalizes cells for comparison.
func cellSet(cells []Cell) map[string]int64 {
	m := make(map[string]int64, len(cells))
	for _, c := range cells {
		k := ""
		for _, v := range c.Values {
			k += string(rune(v+2)) + ","
		}
		m[k] = c.Count
	}
	return m
}

func sameCells(a, b []Cell) bool {
	am, bm := cellSet(a), cellSet(b)
	if len(am) != len(bm) {
		return false
	}
	for k, v := range am {
		if bm[k] != v {
			return false
		}
	}
	return true
}

// TestPaperExample1 is Table 1 / Example 1 of the paper end to end through
// the public API, for all three C-Cubing algorithms and QC-DFS.
func TestPaperExample1(t *testing.T) {
	ds, err := NewDataset([]string{"A", "B", "C", "D"}, [][]string{
		{"a1", "b1", "c1", "d1"},
		{"a1", "b1", "c1", "d3"},
		{"a1", "b2", "c2", "d2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgMM, AlgStar, AlgStarArray, AlgQCDFS, AlgQCTree, AlgOBBUC} {
		cells, st, err := ComputeCollect(ds, Options{MinSup: 2, Closed: true, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if st.Cells != 2 || len(cells) != 2 {
			t.Fatalf("%v: got %d cells", alg, len(cells))
		}
		var rendered []string
		for _, c := range cells {
			rendered = append(rendered, ds.FormatCell(c))
		}
		sort.Strings(rendered)
		want := []string{"(a1, *, *, * : 3)", "(a1, b1, c1, * : 2)"}
		for i := range want {
			if rendered[i] != want[i] {
				t.Fatalf("%v: cells = %v, want %v", alg, rendered, want)
			}
		}
	}
}

// TestEnginesAgreeQuick is the cross-engine soundness property: on random
// datasets every closed engine agrees with the oracle and with every other
// engine, and every iceberg engine likewise.
func TestEnginesAgreeQuick(t *testing.T) {
	type cfg struct {
		Seed   int64
		D      uint8
		C      uint8
		S      uint8
		MinSup uint8
	}
	f := func(c cfg) bool {
		d := int(c.D%5) + 2        // 2..6 dims
		card := int(c.C%12) + 2    // 2..13
		skew := float64(c.S%4) / 2 // 0..1.5
		minsup := int64(c.MinSup%6) + 1
		ds, err := Synthetic(SyntheticConfig{T: 120, D: d, C: card, Skew: skew, Seed: c.Seed})
		if err != nil {
			t.Fatalf("Synthetic: %v", err)
		}
		wantIce, wantClosed, err := refcube.Cube(ds.t, minsup)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		for _, alg := range []Algorithm{AlgMM, AlgStar, AlgStarArray, AlgQCDFS} {
			cells, _, err := ComputeCollect(ds, Options{MinSup: minsup, Closed: true, Algorithm: alg})
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			if len(cells) != len(wantClosed) {
				t.Logf("%v: %d closed cells, oracle %d (seed %d d=%d c=%d s=%v m=%d)",
					alg, len(cells), len(wantClosed), c.Seed, d, card, skew, minsup)
				return false
			}
			wc := make([]Cell, len(wantClosed))
			for i, cc := range wantClosed {
				wc[i] = Cell{Values: cc.Values, Count: cc.Count}
			}
			if !sameCells(cells, wc) {
				return false
			}
		}
		for _, alg := range []Algorithm{AlgMM, AlgStar, AlgStarArray, AlgBUC} {
			cells, _, err := ComputeCollect(ds, Options{MinSup: minsup, Algorithm: alg})
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			wi := make([]Cell, len(wantIce))
			for i, cc := range wantIce {
				wi[i] = Cell{Values: cc.Values, Count: cc.Count}
			}
			if !sameCells(cells, wi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderStrategiesPreserveOutput: dimension ordering must never change
// the emitted cell set (cells are remapped to original positions).
func TestOrderStrategiesPreserveOutput(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{T: 300, Cards: []int{3, 17, 2, 9}, Skew: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgStar, AlgStarArray} {
		base, _ := collect(t, ds, Options{MinSup: 2, Closed: true, Algorithm: alg})
		for _, ord := range []OrderStrategy{OrderByCardinality, OrderByEntropy} {
			got, _ := collect(t, ds, Options{MinSup: 2, Closed: true, Algorithm: alg, Order: ord})
			if !sameCells(base, got) {
				t.Fatalf("%v with order %v changed the output", alg, ord)
			}
		}
	}
}

func TestAutoAlgorithmRuns(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{T: 200, D: 4, C: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cells, st, err := ComputeCollect(ds, Options{MinSup: 2, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Algorithm == AlgAuto || len(cells) == 0 {
		t.Fatalf("auto run: alg=%v cells=%d", st.Algorithm, len(cells))
	}
	if st.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
	if st.Bytes != int64(len(cells))*(4*4+8) {
		t.Fatalf("bytes = %d for %d cells", st.Bytes, len(cells))
	}
}

func TestOptionValidation(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{T: 50, D: 3, C: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ComputeCollect(ds, Options{MinSup: 1, Closed: true, Algorithm: AlgBUC}); err == nil {
		t.Fatal("closed BUC must error")
	}
	if _, _, err := ComputeCollect(ds, Options{MinSup: 1, Algorithm: AlgQCDFS}); err == nil {
		t.Fatal("non-closed QC-DFS must error")
	}
	if _, _, err := ComputeCollect(ds, Options{MinSup: 1, Algorithm: AlgMM, Measure: MeasureSum}); err == nil {
		t.Fatal("measure on MM must error")
	}
	if _, _, err := ComputeCollect(nil, Options{}); err == nil {
		t.Fatal("nil dataset must error")
	}
}

func TestMeasureThroughBUC(t *testing.T) {
	ds, err := NewDatasetFromValues([]string{"x", "y"}, [][]int32{{0, 0}, {0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetMeasure([]float64{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	cells, _ := collect(t, ds, Options{MinSup: 1, Algorithm: AlgBUC, Measure: MeasureSum})
	for _, c := range cells {
		if c.Values[0] == Star && c.Values[1] == Star && c.Aux != 7 {
			t.Fatalf("apex sum = %v", c.Aux)
		}
	}
}

func TestReadCSVRoundTrip(t *testing.T) {
	in := "city,product\nNY,phone\nSF,phone\nNY,laptop\n"
	ds, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumDims() != 2 || ds.NumTuples() != 3 {
		t.Fatalf("shape %dx%d", ds.NumDims(), ds.NumTuples())
	}
	cells, _ := collect(t, ds, Options{MinSup: 2, Closed: true})
	found := false
	for _, c := range cells {
		if ds.FormatCell(c) == "(*, phone : 2)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing (*, phone : 2); cells: %d", len(cells))
	}
}

// TestAlgorithmStringParse pins the algorithm table against the constants:
// cube snapshots store the constant's value, so each must keep its row.
func TestAlgorithmStringParse(t *testing.T) {
	names := map[Algorithm]string{
		AlgAuto: "Auto", AlgMM: "CC(MM)", AlgStar: "CC(Star)", AlgStarArray: "CC(StarArray)",
		AlgBUC: "BUC", AlgQCDFS: "QC-DFS", AlgQCTree: "QC-Tree", AlgOBBUC: "OB-BUC",
	}
	if len(names) != len(algs.Table) {
		t.Fatalf("%d Algorithm constants, %d table rows", len(names), len(algs.Table))
	}
	ds, err := Synthetic(SyntheticConfig{T: 50, D: 3, C: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for a, name := range names {
		if a.String() != name {
			t.Errorf("Algorithm(%d).String() = %q, want %q", int(a), a.String(), name)
		}
		if got, err := ParseAlgorithm(name); err != nil || got != a {
			t.Errorf("round trip %v: %v, %v", a, got, err)
		}
		for _, alias := range algs.Table[a].Aliases {
			if got, err := ParseAlgorithm(alias); err != nil || got != a {
				t.Errorf("alias %q of %v: %v, %v", alias, a, got, err)
			}
		}
		if a == AlgAuto {
			continue
		}
		eng, _, err := resolveEngine(ds, Options{MinSup: 1, Closed: algs.Table[a].Engine.Caps.Closed}, a)
		if err != nil || eng.Name != name {
			t.Errorf("resolveEngine(%v) = %v, %v", a, eng, err)
		}
	}
	// The -alg help of ccube and of ccserve (closed-capable engines only), as
	// hand-written before the table, and every name in it parses.
	if got, want := algs.Usage(false), "auto|mm|star|stararray|buc|qcdfs|qctree|obbuc"; got != want {
		t.Errorf("usage = %q, want %q", got, want)
	}
	if got, want := algs.Usage(true), "auto|mm|star|stararray|qcdfs|qctree|obbuc"; got != want {
		t.Errorf("closed-capable usage = %q, want %q", got, want)
	}
	for _, alias := range strings.Split(algs.Usage(false), "|") {
		if _, err := ParseAlgorithm(alias); err != nil {
			t.Errorf("help name %q: %v", alias, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("unknown algorithm must error")
	}
	for _, a := range []Algorithm{-1, Algorithm(len(algs.Table)), 200} {
		if want := fmt.Sprintf("Algorithm(%d)", int(a)); a.String() != want {
			t.Errorf("out-of-range String() = %q, want %q", a.String(), want)
		}
		if _, _, err := resolveEngine(ds, Options{MinSup: 1}, a); err == nil {
			t.Errorf("resolveEngine(%v) accepted an unknown algorithm", a)
		}
	}
	if _, _, err := resolveEngine(ds, Options{MinSup: 1}, AlgAuto); err == nil {
		t.Error("resolveEngine(AlgAuto) must fail: the advisor resolves it first")
	}
}

func TestNewDatasetErrors(t *testing.T) {
	if _, err := NewDataset([]string{"a"}, nil); err == nil {
		t.Fatal("no rows must error")
	}
	if _, err := NewDataset([]string{"a", "b"}, [][]string{{"x"}}); err == nil {
		t.Fatal("ragged row must error")
	}
	if _, err := NewDatasetFromValues([]string{"a"}, [][]int32{{0, 1}}); err == nil {
		t.Fatal("name count mismatch must error")
	}
}

func TestDatasetAccessors(t *testing.T) {
	ds, err := NewDataset([]string{"A", "B"}, [][]string{{"x", "y"}, {"z", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Names()[1] != "B" {
		t.Fatalf("names = %v", ds.Names())
	}
	if ds.Cardinalities()[0] != 2 || ds.Cardinalities()[1] != 1 {
		t.Fatalf("cards = %v", ds.Cardinalities())
	}
	if err := ds.SetMeasure([]float64{1}); err == nil {
		t.Fatal("wrong-length measure must error")
	}
}
