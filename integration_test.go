package ccubing

import (
	"testing"

	"ccubing/internal/refcube"
)

// TestWeatherEnginesAgree runs every closed engine over a slice of the
// weather simulator — high-cardinality, strongly dependent data — and
// demands exact agreement with the oracle and between engines. This is the
// closest integration test to the paper's real-data experiments.
func TestWeatherEnginesAgree(t *testing.T) {
	ds, err := Weather(11, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, minsup := range []int64{1, 4} {
		_, wantClosed, err := refcube.Cube(ds.t, minsup)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Cell, len(wantClosed))
		for i, cc := range wantClosed {
			want[i] = Cell{Values: cc.Values, Count: cc.Count}
		}
		for _, alg := range []Algorithm{AlgMM, AlgStar, AlgStarArray, AlgQCDFS, AlgQCTree, AlgOBBUC} {
			cells, _, err := ComputeCollect(ds, Options{MinSup: minsup, Closed: true, Algorithm: alg})
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			if !sameCells(cells, want) {
				t.Fatalf("%v disagrees with oracle at min_sup %d (%d vs %d cells)",
					alg, minsup, len(cells), len(want))
			}
		}
	}
}

// TestWeatherPartitionedAgree: the out-of-core driver must match the direct
// computation on the weather data too.
func TestWeatherPartitionedAgree(t *testing.T) {
	ds, err := Weather(13, 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := collect(t, ds, Options{MinSup: 3, Closed: true, Algorithm: AlgStarArray})
	var parted []Cell
	_, err = ComputePartitioned(ds,
		Options{MinSup: 3, Closed: true, Algorithm: AlgStarArray},
		PartitionOptions{Dim: 3, ExplicitDim: true, Buckets: 8, TempDir: t.TempDir()},
		func(c Cell) {
			vals := make([]int32, len(c.Values))
			copy(vals, c.Values)
			parted = append(parted, Cell{Values: vals, Count: c.Count})
		})
	if err != nil {
		t.Fatal(err)
	}
	if !sameCells(direct, parted) {
		t.Fatalf("partitioned weather run differs: %d vs %d cells", len(parted), len(direct))
	}
}

// TestEndToEndPipeline exercises the full public workflow: generate, cube,
// index, query, mine rules, attach measures.
func TestEndToEndPipeline(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{T: 500, D: 5, C: 6, Skew: 1, Dependence: 1, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	aux := make([]float64, ds.NumTuples())
	for i := range aux {
		aux[i] = float64(i % 7)
	}
	if err := ds.SetMeasure(aux); err != nil {
		t.Fatal(err)
	}

	cells, st, err := ComputeCollect(ds, Options{MinSup: 5, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells == 0 {
		t.Fatal("no cells")
	}

	cube, err := Materialize(ds, Options{MinSup: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cube.Close()
	for _, c := range cells[:min(20, len(cells))] {
		if got, ok := cube.Query(c.Values); !ok || got != c.Count {
			t.Fatalf("cube query %v = %d,%v want %d", c.Values, got, ok, c.Count)
		}
	}

	rules, err := MineRules(ds, cells)
	if err != nil {
		t.Fatal(err)
	}
	_ = rules // dependence 1 usually yields rules; zero is legal

	if err := attachMeasure(ds, cells[:min(5, len(cells))], MeasureAvg); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
