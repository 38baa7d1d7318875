package ccubing

// Parallel-vs-sequential equivalence via the public API: for every engine,
// the cube computed with Workers > 1 must be cell-for-cell identical to the
// sequential cube, on both a skewed and a dependent relation (the two
// regimes where closed pruning and shard imbalance bite). Run under -race
// these tests also exercise the merging sink and worker pool for data races.

import (
	"fmt"
	"sort"
	"testing"
)

// parallelTestDatasets builds the skewed and dependent relations.
func parallelTestDatasets(t testing.TB) map[string]*Dataset {
	t.Helper()
	skewed, err := Synthetic(SyntheticConfig{T: 1500, Cards: []int{17, 9, 7, 5, 11}, Skew: 1.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dependent, err := Synthetic(SyntheticConfig{T: 1500, Cards: []int{17, 9, 7, 5, 11}, Skew: 0.6, Dependence: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Dataset{"skewed": skewed, "dependent": dependent}
}

// sortedCells canonicalizes a cell slice for comparison.
func sortedCells(cells []Cell) []Cell {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		for d := range a.Values {
			if a.Values[d] != b.Values[d] {
				return a.Values[d] < b.Values[d]
			}
		}
		return false
	})
	return cells
}

func diffCellSlices(t *testing.T, got, want []Cell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d cells, want %d", len(got), len(want))
	}
	got, want = sortedCells(got), sortedCells(want)
	for i := range got {
		if got[i].Count != want[i].Count {
			t.Fatalf("cell %d: count %d, want %d (%v)", i, got[i].Count, want[i].Count, want[i].Values)
		}
		for d := range got[i].Values {
			if got[i].Values[d] != want[i].Values[d] {
				t.Fatalf("cell %d: values %v, want %v", i, got[i].Values, want[i].Values)
			}
		}
	}
}

// TestParallelMatchesSequential covers all seven engines in every mode they
// support.
func TestParallelMatchesSequential(t *testing.T) {
	type mode struct {
		alg    Algorithm
		closed bool
	}
	modes := []mode{
		{AlgMM, true}, {AlgMM, false},
		{AlgStar, true}, {AlgStar, false},
		{AlgStarArray, true}, {AlgStarArray, false},
		{AlgBUC, false},
		{AlgQCDFS, true},
		{AlgQCTree, true},
		{AlgOBBUC, true},
	}
	for dsName, ds := range parallelTestDatasets(t) {
		for _, m := range modes {
			for _, minsup := range []int64{1, 3} {
				opt := Options{MinSup: minsup, Closed: m.closed, Algorithm: m.alg}
				t.Run(fmt.Sprintf("%s/%v/closed=%v/minsup=%d", dsName, m.alg, m.closed, minsup), func(t *testing.T) {
					want, wantSt, err := ComputeCollect(ds, opt)
					if err != nil {
						t.Fatal(err)
					}
					popt := opt
					popt.Workers = 4
					got, gotSt, err := ComputeCollect(ds, popt)
					if err != nil {
						t.Fatal(err)
					}
					diffCellSlices(t, got, want)
					if gotSt.Cells != wantSt.Cells || gotSt.Bytes != wantSt.Bytes {
						t.Fatalf("stats cells=%d bytes=%d, want cells=%d bytes=%d",
							gotSt.Cells, gotSt.Bytes, wantSt.Cells, wantSt.Bytes)
					}
				})
			}
		}
	}
}

// TestParallelWithOrderStrategy checks the dimension-order permutation is
// still remapped correctly when the ordered table is cubed in parallel.
func TestParallelWithOrderStrategy(t *testing.T) {
	ds := parallelTestDatasets(t)["skewed"]
	for _, ord := range []OrderStrategy{OrderByCardinality, OrderByEntropy} {
		opt := Options{MinSup: 2, Closed: true, Algorithm: AlgStarArray, Order: ord}
		want, _, err := ComputeCollect(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Workers = 3
		got, _, err := ComputeCollect(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		diffCellSlices(t, got, want)
	}
}

// TestParallelNativeMeasure checks native measure aggregation survives the
// parallel decomposition end to end.
func TestParallelNativeMeasure(t *testing.T) {
	ds := parallelTestDatasets(t)["skewed"]
	aux := make([]float64, ds.NumTuples())
	for i := range aux {
		aux[i] = float64(i%7) * 0.5
	}
	if err := ds.SetMeasure(aux); err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{MinSup: 2, Algorithm: AlgBUC, Measure: MeasureSum},
		{MinSup: 2, Closed: true, Algorithm: AlgQCDFS, Measure: MeasureAvg},
	} {
		want, _, err := ComputeCollect(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Workers = 4
		got, _, err := ComputeCollect(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		diffCellSlices(t, got, want)
		wantAux := map[string]float64{}
		for _, c := range want {
			wantAux[fmt.Sprint(c.Values)] = c.Aux
		}
		for _, c := range got {
			if w, ok := wantAux[fmt.Sprint(c.Values)]; !ok || c.Aux != w {
				t.Fatalf("cell %v: aux %g, want %g", c.Values, c.Aux, w)
			}
		}
	}
}

// TestPartitionedParallel checks the out-of-core driver with concurrent
// bucket cubing still matches the in-memory sequential cube.
func TestPartitionedParallel(t *testing.T) {
	for dsName, ds := range parallelTestDatasets(t) {
		opt := Options{MinSup: 2, Closed: true, Algorithm: AlgStarArray}
		want, _, err := ComputeCollect(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Workers = 3
		// Reordering moves the partition dimension to another column of the
		// table the engine sees; the cells come back in dataset order.
		for _, opt.Order = range []OrderStrategy{OrderOriginal, OrderByCardinality} {
			for _, popt := range []PartitionOptions{{Dim: -1}, {Dim: 1, ExplicitDim: true}} {
				popt.Buckets, popt.TempDir = 5, t.TempDir()
				var got []Cell
				_, err = ComputePartitioned(ds, opt, popt, func(c Cell) {
					vals := make([]int32, len(c.Values))
					copy(vals, c.Values)
					got = append(got, Cell{Values: vals, Count: c.Count})
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 {
					t.Fatalf("%s: no cells", dsName)
				}
				diffCellSlices(t, got, want)
			}
		}
	}
}

// TestWorkersResolution pins the Workers semantics: 0 and 1 sequential,
// negative = NumCPU (observable only via identical results, so this is a
// smoke test over the boundary values).
func TestWorkersResolution(t *testing.T) {
	ds := parallelTestDatasets(t)["skewed"]
	opt := Options{MinSup: 2, Closed: true, Algorithm: AlgMM}
	want, _, err := ComputeCollect(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, 0, 2, 16} {
		opt.Workers = w
		got, _, err := ComputeCollect(ds, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		diffCellSlices(t, got, want)
	}
}
