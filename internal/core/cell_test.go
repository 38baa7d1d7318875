package core

import (
	"testing"
)

func TestCellDims(t *testing.T) {
	c := Cell{Values: []Value{1, Star, 2, Star}}
	if c.Dims() != 2 {
		t.Fatalf("Dims = %d", c.Dims())
	}
	if (Cell{Values: []Value{Star, Star}}).Dims() != 0 {
		t.Fatal("apex cell should have 0 dims")
	}
}

func TestCellKeyDistinguishesCuboids(t *testing.T) {
	a := Cell{Values: []Value{1, Star}}
	b := Cell{Values: []Value{Star, 1}}
	c := Cell{Values: []Value{1, 1}}
	if a.Key() == b.Key() || a.Key() == c.Key() || b.Key() == c.Key() {
		t.Fatal("cell keys must be unique per cell")
	}
	if a.Key() != CellKey([]Value{1, Star}) {
		t.Fatal("Key must equal CellKey of values")
	}
}

func TestCellString(t *testing.T) {
	c := Cell{Values: []Value{1, Star, 2}, Count: 7}
	if got := c.String(); got != "(a1, *, c2 : 7)" {
		t.Fatalf("String = %q", got)
	}
}

func TestSortCellsDeterministic(t *testing.T) {
	cells := []Cell{
		{Values: []Value{2, 1}},
		{Values: []Value{Star, 1}},
		{Values: []Value{1, Star}},
		{Values: []Value{1, 1}},
	}
	SortCells(cells)
	// Star is -1, so it sorts before concrete values.
	want := [][]Value{{Star, 1}, {1, Star}, {1, 1}, {2, 1}}
	for i, w := range want {
		for d := range w {
			if cells[i].Values[d] != w[d] {
				t.Fatalf("pos %d = %v, want %v", i, cells[i].Values, w)
			}
		}
	}
}
