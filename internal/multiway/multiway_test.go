package multiway

import (
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/gen"
	"ccubing/internal/table"
)

// collect runs a space over all tuples of t with the given dense dims and
// gathers emitted cells into a map keyed by cell key over the full dims.
func collect(t *testing.T, tb *table.Table, dims []Dim, closed bool) map[string]int64 {
	t.Helper()
	s, err := NewSpace(nil, dims, tb.Cards, closed, tb.Cols, 1<<20)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	for i := 0; i < tb.NumTuples(); i++ {
		s.Add(core.TID(i))
	}
	got := map[string]int64{}
	vals := make([]core.Value, tb.NumDims())
	s.Process(func(members []Dim, dimVals []core.Value, count int64, _ core.Closedness, _ float64) {
		for d := range vals {
			vals[d] = core.Star
		}
		for i := range members {
			vals[members[i].D] = dimVals[i]
		}
		k := core.CellKey(vals)
		if _, dup := got[k]; dup {
			t.Fatalf("duplicate emission for %v", vals)
		}
		got[k] = count
	})
	return got
}

// bruteDense computes the expected dense-space cells by brute force: every
// combination of (dense value | star) per array dimension, counting matching
// tuples.
func bruteDense(tb *table.Table, dims []Dim) map[string]int64 {
	want := map[string]int64{}
	var rec func(i int, vals []core.Value)
	vals := make([]core.Value, tb.NumDims())
	for d := range vals {
		vals[d] = core.Star
	}
	count := func(vals []core.Value) int64 {
		var c int64
		for t := 0; t < tb.NumTuples(); t++ {
			ok := true
			for d, v := range vals {
				if v != core.Star && tb.Cols[d][t] != v {
					ok = false
					break
				}
			}
			if ok {
				c++
			}
		}
		return c
	}
	rec = func(i int, vals []core.Value) {
		if i == len(dims) {
			if c := count(vals); c > 0 {
				want[core.CellKey(vals)] = c
			}
			return
		}
		rec(i+1, vals)
		for _, v := range dims[i].Vals {
			vals[dims[i].D] = v
			rec(i+1, vals)
			vals[dims[i].D] = core.Star
		}
	}
	rec(0, vals)
	return want
}

func TestSpaceMatchesBruteForce(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 300, D: 4, C: 5, S: 1, Seed: 3})
	dims := []Dim{
		{D: 0, Vals: []core.Value{0, 2, 4}},
		{D: 2, Vals: []core.Value{1, 3}},
		{D: 3, Vals: []core.Value{0}},
	}
	got := collect(t, tb, dims, false)
	want := bruteDense(tb, dims)
	if len(got) != len(want) {
		t.Fatalf("got %d cells, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("cell count mismatch: got %d want %d", got[k], c)
		}
	}
}

func TestSpaceEmptyDims(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 50, D: 2, C: 3, Seed: 1})
	got := collect(t, tb, nil, false)
	apex := core.CellKey([]core.Value{core.Star, core.Star})
	if len(got) != 1 || got[apex] != 50 {
		t.Fatalf("empty-dims space = %v", got)
	}
}

func TestSpaceClosednessMatchesExact(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 200, D: 3, C: 4, S: 0.5, Seed: 5})
	dims := []Dim{
		{D: 0, Vals: []core.Value{0, 1, 2, 3}},
		{D: 1, Vals: []core.Value{0, 1, 2, 3}},
	}
	s, err := NewSpace(nil, dims, tb.Cards, true, tb.Cols, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tb.NumTuples(); i++ {
		s.Add(core.TID(i))
	}
	s.Process(func(members []Dim, dimVals []core.Value, count int64, cls core.Closedness, _ float64) {
		// Recompute the measure from scratch for the emitted cell.
		var tids []core.TID
		for tid := 0; tid < tb.NumTuples(); tid++ {
			ok := true
			for i := range members {
				if tb.Cols[members[i].D][tid] != dimVals[i] {
					ok = false
					break
				}
			}
			if ok {
				tids = append(tids, core.TID(tid))
			}
		}
		want := core.ExactClosedness(tids, tb.Cols)
		if cls.Rep != want.Rep || cls.Mask&core.LowBits(3) != want.Mask&core.LowBits(3) {
			t.Fatalf("closedness mismatch for %v/%v: got %+v want %+v",
				members, dimVals, cls, want)
		}
	})
}

func TestNewSpaceErrors(t *testing.T) {
	cards := []int{4, 4}
	cols := core.Columns{{0}, {0}}
	if _, err := NewSpace(nil, []Dim{{D: 0, Vals: nil}}, cards, false, cols, 100); err == nil {
		t.Fatal("empty dense set must error")
	}
	big := []Dim{
		{D: 0, Vals: []core.Value{0, 1, 2, 3}},
		{D: 1, Vals: []core.Value{0, 1, 2, 3}},
	}
	if _, err := NewSpace(nil, big, cards, false, cols, 10); err == nil {
		t.Fatal("budget overflow must error")
	}
}

func TestCells(t *testing.T) {
	cards := []int{4, 4}
	cols := core.Columns{{0}, {0}}
	s, err := NewSpace(nil, []Dim{{D: 0, Vals: []core.Value{0, 1}}}, cards, false, cols, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cells() != 3 { // 2 dense + other
		t.Fatalf("Cells = %d", s.Cells())
	}
}

// measureAux is a per-tuple measure input with repeats and negatives, so
// sums, minima and maxima all differ.
func measureAux(tb *table.Table) []float64 {
	aux := make([]float64, tb.NumTuples())
	for i := range aux {
		aux[i] = float64(i%11) - 4
	}
	return aux
}

// foldDirect folds the measure over tids the way a brute-force scan would.
func foldDirect(kind core.MeasureKind, aux []float64, tids []core.TID) float64 {
	acc := core.StoredIdentity(kind)
	for _, t := range tids {
		switch x := aux[t]; kind {
		case core.MeasureMin:
			acc = min(acc, x)
		case core.MeasureMax:
			acc = max(acc, x)
		default:
			acc += x
		}
	}
	return acc
}

// TestSumOutMatchesDirect computes the child of the base cuboid that drops
// each member in turn — the first (inner run of 1), a middle one and the last
// (one outer row) — and checks every cell of the child array, "other" buckets
// included, against the array built directly from the tuples: counts, the
// exact closedness and the measure, for sum, min and max.
func TestSumOutMatchesDirect(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 400, D: 4, C: 6, S: 0.8, Seed: 13})
	aux := measureAux(tb)
	dims := []Dim{
		{D: 0, Vals: []core.Value{0, 2, 3}},
		{D: 1, Vals: []core.Value{1}},
		{D: 3, Vals: []core.Value{0, 1, 4, 5}},
	}
	for _, kind := range []core.MeasureKind{core.MeasureSum, core.MeasureMin, core.MeasureMax} {
		for mi := range dims {
			s, err := NewSpace(nil, dims, tb.Cards, true, tb.Cols, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			s.SetMeasure(kind, aux)
			for i := 0; i < tb.NumTuples(); i++ {
				s.Add(core.TID(i))
			}
			k := len(dims)
			s.sumOut(k, mi)
			child := &s.a.levels[k-1]

			// The child's members are dims without mi, the first innermost.
			cells := make([][]core.TID, len(child.counts))
			for i := 0; i < tb.NumTuples(); i++ {
				idx, stride := 0, 1
				for _, m := range child.members {
					idx += s.coord(m, tb.Cols[dims[m].D][i]) * stride
					stride *= s.sizes[m]
				}
				cells[idx] = append(cells[idx], core.TID(i))
			}
			if len(child.members) != k-1 || len(cells) != s.total/s.sizes[mi] {
				t.Fatalf("kind %v drop %d: child members %v over %d cells", kind, mi, child.members, len(cells))
			}
			all := core.LowBits(tb.NumDims())
			for idx, tids := range cells {
				want := core.ExactClosedness(tids, tb.Cols)
				got := child.cls[idx]
				if child.counts[idx] != int64(len(tids)) || got.Rep != want.Rep || got.Mask&all != want.Mask&all {
					t.Fatalf("kind %v drop %d cell %d: got (%d, %+v), want (%d, %+v)",
						kind, mi, idx, child.counts[idx], got, len(tids), want)
				}
				if w := foldDirect(kind, aux, tids); child.aux[idx] != w {
					t.Fatalf("kind %v drop %d cell %d: measure %v, want %v", kind, mi, idx, child.aux[idx], w)
				}
			}
		}
	}
}

// emitted is one cell as Process hands it to Emit.
type emitted struct {
	count int64
	cls   core.Closedness
	aux   float64
}

// walk fills a space on a (a fresh Arena when nil) with every tuple of tb
// and returns its emitted cells by full cell key.
func walk(t *testing.T, a *Arena, tb *table.Table, dims []Dim, closed bool, kind core.MeasureKind, aux []float64) map[string]emitted {
	t.Helper()
	s, err := NewSpace(a, dims, tb.Cards, closed, tb.Cols, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s.SetMeasure(kind, aux)
	for i := 0; i < tb.NumTuples(); i++ {
		s.Add(core.TID(i))
	}
	got := map[string]emitted{}
	vals := make([]core.Value, tb.NumDims())
	s.Process(func(members []Dim, dimVals []core.Value, count int64, cls core.Closedness, x float64) {
		for d := range vals {
			vals[d] = core.Star
		}
		for i := range members {
			vals[members[i].D] = dimVals[i]
		}
		k := core.CellKey(vals)
		if _, dup := got[k]; dup {
			t.Fatalf("duplicate emission for %v", vals)
		}
		got[k] = emitted{count, cls, x}
	})
	return got
}

// TestSpaceMeasuresMatchBruteForce checks every emitted cell's count,
// closedness and min, max or sum against a scan of its tuples.
func TestSpaceMeasuresMatchBruteForce(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 300, D: 4, C: 5, S: 1, Seed: 17})
	aux := measureAux(tb)
	dims := []Dim{
		{D: 1, Vals: []core.Value{0, 1, 3}},
		{D: 2, Vals: []core.Value{2, 4}},
		{D: 3, Vals: []core.Value{0, 1}},
	}
	all := core.LowBits(tb.NumDims())
	for _, kind := range []core.MeasureKind{core.MeasureSum, core.MeasureMin, core.MeasureMax} {
		got := walk(t, nil, tb, dims, true, kind, aux)
		want := bruteDense(tb, dims)
		if len(got) != len(want) {
			t.Fatalf("kind %v: %d cells, want %d", kind, len(got), len(want))
		}
		for k, c := range got {
			vals := make([]core.Value, tb.NumDims())
			for d := range vals {
				vals[d] = core.DecodeValue([]byte(k)[d*core.ValueWidth:])
			}
			var tids []core.TID
			for i := 0; i < tb.NumTuples(); i++ {
				ok := true
				for d, v := range vals {
					if v != core.Star && tb.Cols[d][i] != v {
						ok = false
					}
				}
				if ok {
					tids = append(tids, core.TID(i))
				}
			}
			wc := core.ExactClosedness(tids, tb.Cols)
			if c.count != want[k] || c.cls.Rep != wc.Rep || c.cls.Mask&all != wc.Mask&all {
				t.Fatalf("kind %v cell %v: got (%d, %+v), want (%d, %+v)", kind, vals, c.count, c.cls, want[k], wc)
			}
			if w := foldDirect(kind, aux, tids); c.aux != w {
				t.Fatalf("kind %v cell %v: measure %v, want %v", kind, vals, c.aux, w)
			}
		}
	}
}

// TestArenaReuse drives one Arena through spaces that shrink and grow in
// shape (member count) and size, switch closedness and the measure on and
// off, and checks each against the same space on a fresh Arena: a reused
// level must carry nothing over from the space before it.
func TestArenaReuse(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 500, D: 5, C: 7, S: 1, Seed: 19})
	aux := measureAux(tb)
	seq := []struct {
		dims   []Dim
		closed bool
		kind   core.MeasureKind
	}{
		{[]Dim{{D: 0, Vals: []core.Value{0, 1, 2, 3, 4}}, {D: 1, Vals: []core.Value{0, 1, 2}}, {D: 2, Vals: []core.Value{0, 1, 5}}, {D: 4, Vals: []core.Value{0, 2}}}, true, core.MeasureSum},
		{[]Dim{{D: 3, Vals: []core.Value{1}}}, true, core.MeasureMin},
		{[]Dim{{D: 1, Vals: []core.Value{0}}, {D: 2, Vals: []core.Value{1}}, {D: 3, Vals: []core.Value{0}}, {D: 4, Vals: []core.Value{3}}, {D: 0, Vals: []core.Value{6}}}, false, core.MeasureNone},
		{[]Dim{{D: 4, Vals: []core.Value{0, 1, 2, 3, 4, 5, 6}}, {D: 0, Vals: []core.Value{0, 1, 2, 3, 4, 5}}}, true, core.MeasureMax},
		{nil, true, core.MeasureSum},
		{[]Dim{{D: 2, Vals: []core.Value{0, 3}}, {D: 0, Vals: []core.Value{1, 2}}, {D: 3, Vals: []core.Value{0, 1, 2}}}, true, core.MeasureNone},
		{[]Dim{{D: 0, Vals: []core.Value{0, 1, 2, 3, 4}}, {D: 1, Vals: []core.Value{0, 1, 2}}, {D: 2, Vals: []core.Value{0, 1, 5}}, {D: 4, Vals: []core.Value{0, 2}}}, false, core.MeasureSum},
	}
	var a Arena
	for i, sp := range seq {
		got := walk(t, &a, tb, sp.dims, sp.closed, sp.kind, aux)
		want := walk(t, nil, tb, sp.dims, sp.closed, sp.kind, aux)
		if len(got) != len(want) {
			t.Fatalf("space %d: %d cells on the reused Arena, %d on a fresh one", i, len(got), len(want))
		}
		for k, w := range want {
			if g, ok := got[k]; !ok || g != w {
				t.Fatalf("space %d: cell %x is %+v on the reused Arena, %+v on a fresh one", i, k, g, w)
			}
		}
	}
}
