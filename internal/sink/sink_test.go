package sink

import (
	"strings"
	"testing"

	"ccubing/internal/core"
)

func TestNullAccounting(t *testing.T) {
	var n Null
	n.Emit([]core.Value{1, core.Star}, 5, 0)
	n.Emit([]core.Value{1, 2}, 3, 0)
	if n.Cells != 2 {
		t.Fatalf("cells = %d", n.Cells)
	}
	// 2 cells × (2 dims × 4 bytes + 8 bytes) = 32 bytes.
	if n.Bytes != 32 {
		t.Fatalf("bytes = %d", n.Bytes)
	}
	if n.MB() != 32.0/(1<<20) {
		t.Fatalf("MB = %v", n.MB())
	}
}

func TestCollectorCopiesScratch(t *testing.T) {
	var c Collector
	scratch := []core.Value{1, 2}
	c.Emit(scratch, 7, 0)
	scratch[0] = 99
	if c.Cells[0].Values[0] != 1 {
		t.Fatal("Collector must copy the scratch slice")
	}
	if c.Cells[0].Count != 7 {
		t.Fatalf("count = %d", c.Cells[0].Count)
	}
}

func TestCollectorByKey(t *testing.T) {
	var c Collector
	c.Emit([]core.Value{1, core.Star}, 2, 0)
	c.Emit([]core.Value{core.Star, 1}, 3, 0)
	m, ok := c.ByKey()
	if !ok || len(m) != 2 {
		t.Fatalf("ByKey = %v, %v", m, ok)
	}
	c.Emit([]core.Value{1, core.Star}, 2, 0)
	if _, ok := c.ByKey(); ok {
		t.Fatal("duplicate cells must be reported")
	}
}

func TestDedup(t *testing.T) {
	var c Collector
	d := &Dedup{Next: &c}
	d.Emit([]core.Value{1}, 1, 0)
	d.Emit([]core.Value{2}, 1, 0)
	d.Emit([]core.Value{1}, 1, 0)
	if d.Dup != 1 {
		t.Fatalf("dup = %d", d.Dup)
	}
	if len(c.Cells) != 3 {
		t.Fatalf("next sink got %d cells", len(c.Cells))
	}
}

func TestDiffCells(t *testing.T) {
	a := []core.Cell{{Values: []core.Value{1, core.Star}, Count: 2}}
	b := []core.Cell{{Values: []core.Value{1, core.Star}, Count: 2}}
	if d := DiffCells(a, b, 10); d != "" {
		t.Fatalf("equal sets diff = %q", d)
	}
	c := []core.Cell{{Values: []core.Value{1, core.Star}, Count: 3}}
	if d := DiffCells(a, c, 10); !strings.Contains(d, "count mismatch") {
		t.Fatalf("diff = %q", d)
	}
	e := []core.Cell{}
	if d := DiffCells(a, e, 10); !strings.Contains(d, "unexpected") {
		t.Fatalf("diff = %q", d)
	}
	if d := DiffCells(e, a, 10); !strings.Contains(d, "missing") {
		t.Fatalf("diff = %q", d)
	}
}

func TestFormatCells(t *testing.T) {
	cells := []core.Cell{
		{Values: []core.Value{1, core.Star}, Count: 2},
		{Values: []core.Value{core.Star, 0}, Count: 5},
	}
	got := FormatCells(cells)
	if !strings.Contains(got, "(a1, * : 2)") || !strings.Contains(got, "(*, b0 : 5)") {
		t.Fatalf("FormatCells = %q", got)
	}
	// Canonical order: the star-first cell sorts first.
	if strings.Index(got, "(*, b0") > strings.Index(got, "(a1, *") {
		t.Fatalf("not in canonical order: %q", got)
	}
}
