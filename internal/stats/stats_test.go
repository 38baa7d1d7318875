package stats

import (
	"math"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/table"
)

func tbl(t *testing.T, rows [][]core.Value) *table.Table {
	t.Helper()
	tb, err := table.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return tb
}

func TestHistogram(t *testing.T) {
	tb := tbl(t, [][]core.Value{{0}, {1}, {1}, {2}})
	h := Histogram(tb, 0)
	want := []int64{1, 2, 1}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
}

func TestEntropyUniformVsConstant(t *testing.T) {
	uniform := tbl(t, [][]core.Value{{0, 0}, {1, 0}, {2, 0}, {3, 0}})
	eU := Entropy(uniform, 0)
	if math.Abs(eU-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform entropy = %v, want ln 4", eU)
	}
	if e := Entropy(uniform, 1); e != 0 {
		t.Fatalf("constant dim entropy = %v, want 0", e)
	}
}

func TestEntropyMeasureOrdersUniformFirst(t *testing.T) {
	// Dim 0: uniform over 2 values; dim 1: heavily skewed over 2 values.
	// Same cardinality, so the paper's E must rank dim 0 higher.
	tb := tbl(t, [][]core.Value{
		{0, 0}, {0, 0}, {0, 0}, {1, 0}, {1, 0}, {1, 1},
	})
	if EntropyMeasure(tb, 0) <= EntropyMeasure(tb, 1) {
		t.Fatalf("uniform dim should have larger E: %v vs %v",
			EntropyMeasure(tb, 0), EntropyMeasure(tb, 1))
	}
}

func TestDistinctValues(t *testing.T) {
	tb := tbl(t, [][]core.Value{{0}, {5}})
	if DistinctValues(tb, 0) != 2 {
		t.Fatalf("distinct = %d", DistinctValues(tb, 0))
	}
}

func TestDependenceEstimate(t *testing.T) {
	// dim1 = dim0 (perfect dependence) vs independent columns.
	dep := tbl(t, [][]core.Value{{0, 0}, {1, 1}, {2, 2}, {0, 0}, {1, 1}, {2, 2}})
	ind := tbl(t, [][]core.Value{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	dDep := DependenceEstimate(dep)
	dInd := DependenceEstimate(ind)
	if dDep < 0.99 {
		t.Fatalf("functional pair should estimate ~1, got %v", dDep)
	}
	if math.Abs(dInd) > 1e-9 {
		t.Fatalf("independent pair should estimate ~0, got %v", dInd)
	}
	single := tbl(t, [][]core.Value{{0}})
	if DependenceEstimate(single) != 0 {
		t.Fatal("single dimension has no dependence")
	}
}
