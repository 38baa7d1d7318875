// Package table provides the dictionary-encoded, in-memory relation all
// cubing engines operate on. Dimension values are dense int32 codes assigned
// per dimension; the engines never see raw strings. Storage is column-major:
// Cols[d][t] is the value of tuple t on dimension d, which suits the
// counting-sort partitioning of BUC/QC-DFS and the per-dimension scans of the
// closedness machinery.
package table

import (
	"fmt"

	"ccubing/internal/core"
)

// Table is a dictionary-encoded relation.
type Table struct {
	// Names holds one label per dimension (may be synthesized).
	Names []string
	// Cards holds the dictionary size (cardinality bound) per dimension:
	// every value on dimension d is in [0, Cards[d]).
	Cards []int
	// Cols is the column-major value store: Cols[d][t].
	Cols core.Columns
	// Aux optionally holds a per-tuple numeric measure input for complex
	// measures (paper Sec. 6.1); nil when the cube is count-only.
	Aux []float64
}

// New allocates a table with nd dimensions and n tuples, all values zero.
// Cards are initialized to 1 and must be raised by the caller before handing
// the table to an engine.
func New(nd, n int) *Table {
	t := &Table{
		Names: make([]string, nd),
		Cards: make([]int, nd),
		Cols:  make(core.Columns, nd),
	}
	for d := 0; d < nd; d++ {
		t.Names[d] = fmt.Sprintf("dim%d", d)
		t.Cards[d] = 1
		t.Cols[d] = make([]core.Value, n)
	}
	return t
}

// FromRows builds a table from row-major values, inferring cardinalities as
// max+1 per dimension. It returns an error on ragged rows or negative values.
func FromRows(rows [][]core.Value) (*Table, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("table: no rows")
	}
	nd := len(rows[0])
	t := New(nd, len(rows))
	for i, r := range rows {
		if len(r) != nd {
			return nil, fmt.Errorf("table: row %d has %d values, want %d", i, len(r), nd)
		}
		for d, v := range r {
			if v < 0 {
				return nil, fmt.Errorf("table: row %d dim %d: negative value %d", i, d, v)
			}
			t.Cols[d][i] = v
			if int(v)+1 > t.Cards[d] {
				t.Cards[d] = int(v) + 1
			}
		}
	}
	return t, nil
}

// NumDims returns the number of dimensions.
func (t *Table) NumDims() int { return len(t.Cols) }

// NumTuples returns the number of tuples.
func (t *Table) NumTuples() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return len(t.Cols[0])
}

// Value returns the value of tuple tid on dimension d.
func (t *Table) Value(tid core.TID, d int) core.Value { return t.Cols[d][tid] }

// Row copies tuple tid into dst (allocating when dst is too short) and
// returns it.
func (t *Table) Row(tid core.TID, dst []core.Value) []core.Value {
	nd := t.NumDims()
	if cap(dst) < nd {
		dst = make([]core.Value, nd)
	}
	dst = dst[:nd]
	for d := 0; d < nd; d++ {
		dst[d] = t.Cols[d][tid]
	}
	return dst
}

// Validate checks structural invariants: equal column lengths, values within
// cardinality bounds, dimension count within core.MaxDims.
func (t *Table) Validate() error {
	if t.NumDims() > core.MaxDims {
		return fmt.Errorf("table: %d dimensions exceed the %d supported", t.NumDims(), core.MaxDims)
	}
	n := t.NumTuples()
	for d, col := range t.Cols {
		if len(col) != n {
			return fmt.Errorf("table: column %d has %d tuples, want %d", d, len(col), n)
		}
		for i, v := range col {
			if v < 0 || int(v) >= t.Cards[d] {
				return fmt.Errorf("table: tuple %d dim %d: value %d outside [0,%d)", i, d, v, t.Cards[d])
			}
		}
	}
	if t.Aux != nil && len(t.Aux) != n {
		return fmt.Errorf("table: aux measure has %d entries, want %d", len(t.Aux), n)
	}
	return nil
}

// Reorder returns a copy of the table with dimensions permuted so that new
// dimension i is old dimension perm[i]. Used by the dimension-ordering
// strategies (paper Sec. 5.5). The tuple order is unchanged; Aux is shared.
func (t *Table) Reorder(perm []int) (*Table, error) {
	if len(perm) != t.NumDims() {
		return nil, fmt.Errorf("table: permutation has %d entries, want %d", len(perm), t.NumDims())
	}
	seen := make([]bool, len(perm))
	nt := &Table{
		Names: make([]string, len(perm)),
		Cards: make([]int, len(perm)),
		Cols:  make(core.Columns, len(perm)),
		Aux:   t.Aux,
	}
	for i, d := range perm {
		if d < 0 || d >= len(perm) || seen[d] {
			return nil, fmt.Errorf("table: invalid permutation %v", perm)
		}
		seen[d] = true
		nt.Names[i] = t.Names[d]
		nt.Cards[i] = t.Cards[d]
		nt.Cols[i] = t.Cols[d] // columns are immutable under cubing; share
	}
	return nt, nil
}

// Project returns a table view keeping only the given dimensions, in order.
// Columns are shared, not copied. Duplicate or out-of-range dimensions are
// rejected.
func (t *Table) Project(dims []int) (*Table, error) {
	seen := make([]bool, t.NumDims())
	nt := &Table{
		Names: make([]string, len(dims)),
		Cards: make([]int, len(dims)),
		Cols:  make(core.Columns, len(dims)),
		Aux:   t.Aux,
	}
	for i, d := range dims {
		if d < 0 || d >= t.NumDims() || seen[d] {
			return nil, fmt.Errorf("table: invalid projection %v", dims)
		}
		seen[d] = true
		nt.Names[i] = t.Names[d]
		nt.Cards[i] = t.Cards[d]
		nt.Cols[i] = t.Cols[d]
	}
	return nt, nil
}

// SelectDims returns a copy restricted to the first nd dimensions; the
// weather experiments (paper Figs. 7, 11) sweep the dimension count this way.
func (t *Table) SelectDims(nd int) (*Table, error) {
	if nd < 1 || nd > t.NumDims() {
		return nil, fmt.Errorf("table: cannot select %d of %d dimensions", nd, t.NumDims())
	}
	dims := make([]int, nd)
	for i := range dims {
		dims[i] = i
	}
	return t.Project(dims)
}
