package core

import (
	"encoding/binary"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// Cell is a k-dimensional group-by cell (paper Def. 1): Values holds one
// entry per dimension of the base relation, Star marking aggregated-over
// dimensions, and Count is the count measure. Aux optionally carries the
// value of a complex measure (paper Sec. 6.1).
type Cell struct {
	Values []Value
	Count  int64
	Aux    float64
}

// Dims returns the number of non-Star dimensions, i.e. the k of the
// k-dimensional cuboid the cell belongs to.
func (c Cell) Dims() int {
	n := 0
	for _, v := range c.Values {
		if v != Star {
			n++
		}
	}
	return n
}

// Key packs the cell's values into a compact string usable as a map key.
// Cells from the same relation have equal keys iff they are the same cell.
func (c Cell) Key() string { return CellKey(c.Values) }

// CellKey packs a value vector into a map key. Star positions participate so
// that cells from different cuboids never collide.
func CellKey(vals []Value) string {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return string(b)
}

// AppendValue appends one value's 4-byte key encoding to b, for callers
// packing partial (per-cuboid) keys incrementally; the layout matches
// CellKey's little-endian encoding.
func AppendValue(b []byte, v Value) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// ValueWidth is the number of bytes one value occupies in the packed-key
// encoding of CellKey/AppendValue.
const ValueWidth = 4

// AppendValues appends the packed-key encoding of vals at the given
// dimensions to dst, in the order dims lists them: the per-cuboid partial-key
// form of CellKey shared by the serving store and its aggregate engine.
func AppendValues(dst []byte, vals []Value, dims []int) []byte {
	for _, d := range dims {
		dst = AppendValue(dst, vals[d])
	}
	return dst
}

// KeyOrder maps a value to an integer that compares like the value's packed
// (little-endian) key bytes: sorting values by it sorts their keys.
func KeyOrder(v Value) uint32 { return bits.ReverseBytes32(uint32(v)) }

// DecodeValue reads the value encoded at the start of b, inverting
// AppendValue. It panics when b holds fewer than ValueWidth bytes.
func DecodeValue(b []byte) Value {
	return Value(binary.LittleEndian.Uint32(b))
}

// String renders the cell in the paper's notation, e.g. (a1, *, c3 : 17)
// using dimension index + value index names.
func (c Cell) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for d, v := range c.Values {
		if d > 0 {
			b.WriteString(", ")
		}
		if v == Star {
			b.WriteByte('*')
		} else {
			b.WriteByte(byte('a' + d%26))
			b.WriteString(strconv.Itoa(int(v)))
		}
	}
	b.WriteString(" : ")
	b.WriteString(strconv.FormatInt(c.Count, 10))
	b.WriteByte(')')
	return b.String()
}

// SortCells orders cells canonically: by number of fixed dimensions, then
// lexicographically by values. Used to compare algorithm outputs in tests.
func SortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		for d := range a.Values {
			if a.Values[d] != b.Values[d] {
				return a.Values[d] < b.Values[d]
			}
		}
		return false
	})
}
