package ccubing

import (
	"strings"
	"testing"
)

func TestAttachMeasure(t *testing.T) {
	ds, err := NewDatasetFromValues([]string{"x", "y"}, [][]int32{{0, 0}, {0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	cells, _ := collect(t, ds, Options{MinSup: 1, Closed: true, Algorithm: AlgStar})
	if err := attachMeasure(ds, cells, MeasureSum); err == nil {
		t.Fatal("attachMeasure without a measure column must error")
	}
	if err := ds.SetMeasure([]float64{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if err := attachMeasure(ds, cells, MeasureSum); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Values[0] == Star && c.Values[1] == Star && c.Aux != 7 {
			t.Fatalf("apex sum = %v", c.Aux)
		}
		if c.Values[0] == 0 && c.Values[1] == Star && c.Aux != 3 {
			t.Fatalf("(0,*) sum = %v", c.Aux)
		}
	}
	// MeasureNone is a no-op.
	if err := attachMeasure(ds, cells, MeasureNone); err != nil {
		t.Fatal(err)
	}
}

// TestAttachMeasureBatched cross-checks the single-scan implementation
// against a naive per-cell rescan on a full closed cube, including duplicate
// cells (which must each receive the same value).
func TestAttachMeasureBatched(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{T: 600, D: 4, C: 7, Skew: 1.2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	aux := make([]float64, ds.NumTuples())
	for i := range aux {
		aux[i] = float64((i*31)%17) - 5
	}
	if err := ds.SetMeasure(aux); err != nil {
		t.Fatal(err)
	}
	cells, _ := collect(t, ds, Options{MinSup: 1, Closed: true, Algorithm: AlgMM})
	cells = append(cells, cells[0], cells[len(cells)-1]) // duplicates
	for _, kind := range []MeasureKind{MeasureSum, MeasureMin, MeasureMax, MeasureAvg} {
		if err := attachMeasure(ds, cells, kind); err != nil {
			t.Fatal(err)
		}
		tb := ds.Table()
		for ci, c := range cells {
			agg := newTestAgg(kind)
			for tid := 0; tid < tb.NumTuples(); tid++ {
				match := true
				for d, v := range c.Values {
					if v != Star && tb.Cols[d][tid] != v {
						match = false
						break
					}
				}
				if match {
					agg.add(tb.Aux[tid])
				}
			}
			if got, want := c.Aux, agg.value(); got != want {
				t.Fatalf("%v cell %d (%v): aux %v, want %v", kind, ci, c.Values, got, want)
			}
		}
	}
}

// newTestAgg is an independent reference aggregator for the cross-check.
type testAgg struct {
	kind     MeasureKind
	sum      float64
	min, max float64
	n        int64
}

func newTestAgg(k MeasureKind) *testAgg {
	return &testAgg{kind: k, min: 1e300, max: -1e300}
}

func (a *testAgg) add(x float64) {
	a.sum += x
	a.n++
	if x < a.min {
		a.min = x
	}
	if x > a.max {
		a.max = x
	}
}

// value returns the stored-aggregate form attachMeasure fills: the running
// sum for avg (the algebraic pair's numerator), extrema/sum otherwise.
func (a *testAgg) value() float64 {
	switch a.kind {
	case MeasureMin:
		return a.min
	case MeasureMax:
		return a.max
	default:
		return a.sum
	}
}

func TestMineRulesEndToEnd(t *testing.T) {
	// Strongly dependent dataset: plant dependence and mine it back.
	ds, err := Synthetic(SyntheticConfig{T: 400, D: 4, C: 6, Skew: 0.5, Dependence: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cells, _ := collect(t, ds, Options{MinSup: 4, Closed: true, Algorithm: AlgStarArray})
	rs, err := MineRules(ds, cells)
	if err != nil {
		t.Fatalf("MineRules: %v", err)
	}
	if len(rs) == 0 {
		t.Fatal("expected rules on dependent data")
	}
	if len(rs) >= len(cells) {
		t.Fatalf("%d rules for %d cells: expected compression", len(rs), len(cells))
	}
	if rs[0].String() == "" {
		t.Fatal("empty rule rendering")
	}
}

func TestComputePartitionedMatchesCompute(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{T: 600, D: 4, C: 8, Skew: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgStarArray, AlgMM} {
		direct, _ := collect(t, ds, Options{MinSup: 2, Closed: true, Algorithm: alg})
		var parted []Cell
		st, err := ComputePartitioned(ds,
			Options{MinSup: 2, Closed: true, Algorithm: alg},
			PartitionOptions{Dim: -1, Buckets: 4, TempDir: t.TempDir()},
			func(c Cell) {
				vals := make([]int32, len(c.Values))
				copy(vals, c.Values)
				parted = append(parted, Cell{Values: vals, Count: c.Count})
			})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !sameCells(direct, parted) {
			t.Fatalf("%v: partitioned output differs (%d vs %d cells)",
				alg, len(parted), len(direct))
		}
		if st.Cells != int64(len(parted)) {
			t.Fatalf("stats cells = %d, emitted %d", st.Cells, len(parted))
		}
	}
}

// TestPartitionOptionsValidation pins the PartitionOptions.Dim contract: the
// zero value auto-picks (no silent dimension-0 partitioning), out-of-range
// explicit dimensions fail with a ccubing:-prefixed error, and a positive Dim
// without ExplicitDim is rejected instead of silently ignored.
func TestPartitionOptionsValidation(t *testing.T) {
	// Cardinalities chosen so auto-pick selects dimension 2, not 0.
	ds, err := Synthetic(SyntheticConfig{T: 400, Cards: []int{3, 4, 9, 5}, Skew: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MinSup: 2, Closed: true, Algorithm: AlgStarArray}
	run := func(popt PartitionOptions) ([]Cell, error) {
		var got []Cell
		popt.Buckets = 4
		popt.TempDir = t.TempDir()
		_, err := ComputePartitioned(ds, opt, popt, func(c Cell) {
			vals := make([]int32, len(c.Values))
			copy(vals, c.Values)
			got = append(got, Cell{Values: vals, Count: c.Count})
		})
		return got, err
	}

	want, _ := collect(t, ds, opt)

	// Zero value and the historical -1 sentinel both auto-pick; explicit
	// selection of the same dimension agrees cell-for-cell.
	for _, popt := range []PartitionOptions{
		{},
		{Dim: -1},
		{Dim: 2, ExplicitDim: true},
		{Dim: 0, ExplicitDim: true},
	} {
		got, err := run(popt)
		if err != nil {
			t.Fatalf("%+v: %v", popt, err)
		}
		if !sameCells(got, want) {
			t.Fatalf("%+v: partitioned output differs (%d vs %d cells)", popt, len(got), len(want))
		}
	}

	// Out-of-range explicit dimensions: clear facade-level errors.
	for _, popt := range []PartitionOptions{
		{Dim: 4, ExplicitDim: true},
		{Dim: -1, ExplicitDim: true},
	} {
		if _, err := run(popt); err == nil {
			t.Fatalf("%+v: want out-of-range error", popt)
		} else if !strings.HasPrefix(err.Error(), "ccubing:") {
			t.Fatalf("%+v: error %q lacks ccubing: prefix", popt, err)
		}
	}

	// Positive Dim without ExplicitDim: loud rejection, not silent auto-pick.
	if _, err := run(PartitionOptions{Dim: 2}); err == nil {
		t.Fatal("Dim without ExplicitDim: want error")
	} else if !strings.Contains(err.Error(), "ExplicitDim") {
		t.Fatalf("error %q should point at ExplicitDim", err)
	}
}

func TestComputePartitionedNativeMeasure(t *testing.T) {
	// Partition files carry the aux column, so native measures survive the
	// spill: the partitioned run must emit the exact cells (values, counts,
	// measures) of an in-memory run. Integer measure values keep float sums
	// order-independent; the second column has no short decimal form and
	// differs below 1e-6, which only its extrema can be asked to keep.
	ds, err := Synthetic(SyntheticConfig{T: 300, D: 3, C: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	integers := make([]float64, ds.NumTuples())
	fractions := make([]float64, ds.NumTuples())
	for i := range integers {
		integers[i] = float64((i*13)%23 - 4)
		fractions[i] = 19.99 + float64(i%7)*1e-7
	}
	for _, c := range []struct {
		aux   []float64
		kinds []MeasureKind
	}{
		{integers, []MeasureKind{MeasureSum, MeasureMin, MeasureAvg}},
		{fractions, []MeasureKind{MeasureMin, MeasureMax}},
	} {
		if err := ds.SetMeasure(c.aux); err != nil {
			t.Fatal(err)
		}
		for _, kind := range c.kinds {
			opt := Options{MinSup: 2, Algorithm: AlgBUC, Measure: kind}
			want, _, err := ComputeCollect(ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			var got []Cell
			_, err = ComputePartitioned(ds, opt, PartitionOptions{TempDir: t.TempDir()}, func(c Cell) {
				got = append(got, Cell{Values: append([]int32(nil), c.Values...), Count: c.Count, Aux: c.Aux})
			})
			if err != nil {
				t.Fatal(err)
			}
			want, got = sortedCells(want), sortedCells(got)
			if len(want) != len(got) {
				t.Fatalf("%v: partitioned emitted %d cells, in-memory %d", kind, len(got), len(want))
			}
			for i := range want {
				if want[i].Count != got[i].Count || want[i].Aux != got[i].Aux {
					t.Fatalf("%v cell %v: partitioned (%d,%v), in-memory (%d,%v)",
						kind, want[i].Values, got[i].Count, got[i].Aux, want[i].Count, want[i].Aux)
				}
			}
		}
	}
}

func TestAdviseShape(t *testing.T) {
	// Low-cardinality dataset, closed, min_sup 1: the Star family must win.
	small, err := Synthetic(SyntheticConfig{T: 500, D: 4, C: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a := Advise(small, 1, true); a != AlgStar {
		t.Fatalf("low-card closed full cube: advised %v, want CC(Star)", a)
	}
	// High cardinality: StarArray within the family.
	big, err := Synthetic(SyntheticConfig{T: 2000, D: 3, C: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a := Advise(big, 1, true); a != AlgStarArray {
		t.Fatalf("high-card closed full cube: advised %v, want CC(StarArray)", a)
	}
	// Very high min_sup on independent data: iceberg pruning dominates -> MM.
	if a := Advise(small, 1024, true); a != AlgMM {
		t.Fatalf("high min_sup: advised %v, want CC(MM)", a)
	}
	// Iceberg (non-closed), high min_sup -> MM.
	if a := Advise(small, 64, false); a != AlgMM {
		t.Fatalf("iceberg high min_sup: advised %v, want CC(MM)", a)
	}
}
