package table

import (
	"testing"

	"ccubing/internal/core"
)

func mustFromRows(t *testing.T, rows [][]core.Value) *Table {
	t.Helper()
	tbl, err := FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return tbl
}

func TestFromRowsBasics(t *testing.T) {
	tbl := mustFromRows(t, [][]core.Value{
		{0, 2, 1},
		{1, 0, 1},
	})
	if tbl.NumDims() != 3 || tbl.NumTuples() != 2 {
		t.Fatalf("dims=%d tuples=%d", tbl.NumDims(), tbl.NumTuples())
	}
	if tbl.Cards[0] != 2 || tbl.Cards[1] != 3 || tbl.Cards[2] != 2 {
		t.Fatalf("cards = %v", tbl.Cards)
	}
	if tbl.Value(1, 1) != 0 {
		t.Fatalf("Value(1,1) = %d", tbl.Value(1, 1))
	}
	if err := tbl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty rows must error")
	}
	if _, err := FromRows([][]core.Value{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged rows must error")
	}
	if _, err := FromRows([][]core.Value{{-1}}); err == nil {
		t.Fatal("negative value must error")
	}
}

func TestRow(t *testing.T) {
	tbl := mustFromRows(t, [][]core.Value{{3, 1}, {0, 2}})
	r := tbl.Row(1, nil)
	if r[0] != 0 || r[1] != 2 {
		t.Fatalf("Row = %v", r)
	}
	// Reuses capacity.
	buf := make([]core.Value, 0, 2)
	r2 := tbl.Row(0, buf)
	if &r2[0] != &buf[:1][0] {
		t.Fatal("Row did not reuse provided buffer")
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	tbl := New(1, 2)
	tbl.Cols[0][0] = 4 // cards still 1
	if err := tbl.Validate(); err == nil {
		t.Fatal("Validate must reject value beyond cardinality")
	}
	tbl.Cards[0] = 5
	if err := tbl.Validate(); err != nil {
		t.Fatalf("Validate after raising the cardinality: %v", err)
	}
}

func TestValidateAuxLength(t *testing.T) {
	tbl := New(1, 2)
	tbl.Aux = []float64{1}
	if err := tbl.Validate(); err == nil {
		t.Fatal("Validate must reject mismatched aux length")
	}
}

func TestReorder(t *testing.T) {
	tbl := mustFromRows(t, [][]core.Value{{0, 1, 2}, {1, 2, 0}})
	tbl.Names = []string{"A", "B", "C"}
	r, err := tbl.Reorder([]int{2, 0, 1})
	if err != nil {
		t.Fatalf("Reorder: %v", err)
	}
	if r.Names[0] != "C" || r.Names[1] != "A" {
		t.Fatalf("names = %v", r.Names)
	}
	if r.Value(0, 0) != 2 || r.Value(1, 0) != 0 {
		t.Fatalf("values not permuted: %v", r.Cols)
	}
	if _, err := tbl.Reorder([]int{0, 0, 1}); err == nil {
		t.Fatal("duplicate permutation must error")
	}
	if _, err := tbl.Reorder([]int{0}); err == nil {
		t.Fatal("short permutation must error")
	}
}

func TestSelectDims(t *testing.T) {
	tbl := mustFromRows(t, [][]core.Value{{0, 1, 2}})
	s, err := tbl.SelectDims(2)
	if err != nil {
		t.Fatalf("SelectDims: %v", err)
	}
	if s.NumDims() != 2 || s.Value(0, 1) != 1 {
		t.Fatalf("selected table wrong: %v", s.Cols)
	}
	if _, err := tbl.SelectDims(0); err == nil {
		t.Fatal("SelectDims(0) must error")
	}
	if _, err := tbl.SelectDims(4); err == nil {
		t.Fatal("SelectDims beyond dims must error")
	}
}
