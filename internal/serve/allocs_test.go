package serve

import (
	"runtime/debug"
	"strconv"
	"testing"
)

// TestPartialMergeAllocs gates the router's per-row merge step at exactly 0
// allocations: once fold has interned a partial's labels, meet inserts its
// rows as new groups within the capacity newPartialMerger sized, and combines
// them into existing groups, without allocating. The collector is off for
// the measured window, so the count is exact.
func TestPartialMergeAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rows = 600
	tables := [][]string{make([]string, 40), make([]string, rows/40)}
	for j, table := range tables {
		for id := range table {
			table[id] = "d" + strconv.Itoa(j) + "v" + strconv.Itoa(id)
		}
	}
	for _, agg := range []auxCombiner{combineSum, combineMin, combineMax} {
		p := &aggPartial{width: 3, dims: []int{0, 2}, tables: tables, agg: agg, exact: true}
		for r := 0; r < rows; r++ {
			p.ids = append(p.ids, uint32(r%40), uint32(r/40))
			p.counts = append(p.counts, int64(r%7+1))
			p.aux = append(p.aux, float64(r%11))
		}
		m := newPartialMerger(p, 2*rows, rows)
		m.fold(p)
		if n := testing.AllocsPerRun(100, func() {
			clear(m.slots)
			m.out.ids, m.out.counts, m.out.aux = m.out.ids[:0], m.out.counts[:0], m.out.aux[:0]
			m.meet(p) // every row a new group
			m.meet(p) // every row an existing group
		}); n != 0 {
			t.Fatalf("combiner %d: partialMerger.meet allocates %v per pair of %d-row merges; want 0", agg, n, rows)
		}
		if m.out.rows() != rows || m.out.counts[0] != 2*p.counts[0] {
			t.Fatalf("combiner %d: merged %d rows (first count %d), want %d (%d)", agg, m.out.rows(), m.out.counts[0], rows, 2*p.counts[0])
		}
	}
}
