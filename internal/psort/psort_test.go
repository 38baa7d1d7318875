package psort

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/gen"
)

func TestPartitionBasic(t *testing.T) {
	col := []core.Value{2, 0, 2, 1, 0}
	tids := []core.TID{0, 1, 2, 3, 4}
	var p Partitioner
	b := p.Partition(tids, col, 3)
	if len(b.Vals) != 3 {
		t.Fatalf("vals = %v", b.Vals)
	}
	// Values ascending; stable within bucket.
	wantVals := []core.Value{0, 1, 2}
	wantTids := []core.TID{1, 4, 3, 0, 2}
	for i := range wantVals {
		if b.Vals[i] != wantVals[i] {
			t.Fatalf("vals = %v", b.Vals)
		}
	}
	for i := range wantTids {
		if tids[i] != wantTids[i] {
			t.Fatalf("tids = %v, want %v", tids, wantTids)
		}
	}
	if b.Off[0] != 0 || b.Off[3] != 5 {
		t.Fatalf("off = %v", b.Off)
	}
	// Bucket of value 1 is tids[2:3].
	if got := tids[b.Off[1]:b.Off[2]]; len(got) != 1 || got[0] != 3 {
		t.Fatalf("bucket(1) = %v", got)
	}
}

func TestPartitionEmptyAndSingle(t *testing.T) {
	var p Partitioner
	b := p.Partition(nil, []core.Value{}, 4)
	if len(b.Vals) != 0 || len(b.Off) != 1 {
		t.Fatalf("empty partition = %+v", b)
	}
	col := []core.Value{3}
	tids := []core.TID{0}
	b = p.Partition(tids, col, 4)
	if len(b.Vals) != 1 || b.Vals[0] != 3 || b.Off[1] != 1 {
		t.Fatalf("single partition = %+v", b)
	}
}

func TestPartitionReuse(t *testing.T) {
	var p Partitioner
	colA := []core.Value{1, 0}
	tidsA := []core.TID{0, 1}
	p.Partition(tidsA, colA, 2)
	colB := []core.Value{0, 0, 1}
	tidsB := []core.TID{0, 1, 2}
	b := p.Partition(tidsB, colB, 2)
	if len(b.Vals) != 2 || b.Off[1] != 2 {
		t.Fatalf("reuse partition = %+v", b)
	}
}

func TestLexSortMatchesComparator(t *testing.T) {
	tbl := gen.MustSynthetic(gen.Config{T: 500, D: 4, C: 7, S: 1, Seed: 10})
	dims := []int{2, 0, 3}
	tids := make([]core.TID, tbl.NumTuples())
	for i := range tids {
		tids[i] = core.TID(i)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(tids), func(i, j int) { tids[i], tids[j] = tids[j], tids[i] })

	want := append([]core.TID(nil), tids...)
	sort.SliceStable(want, func(i, j int) bool {
		a, b := want[i], want[j]
		for _, d := range dims {
			va, vb := tbl.Cols[d][a], tbl.Cols[d][b]
			if va != vb {
				return va < vb
			}
		}
		return false
	})

	LexSort(tids, tbl.Cols, dims, tbl.Cards, nil)
	for i := range want {
		if tids[i] != want[i] {
			t.Fatalf("position %d: got %d want %d", i, tids[i], want[i])
		}
	}
}

func TestLexSortWithView(t *testing.T) {
	// View maps value 2 on dim 0 to the star key (card), grouping it last.
	cols := core.Columns{{2, 0, 2, 1}}
	cards := []int{3}
	tids := []core.TID{0, 1, 2, 3}
	view := func(d int, v core.Value) core.Value {
		if v == 2 {
			return core.Value(cards[d])
		}
		return v
	}
	LexSort(tids, cols, []int{0}, cards, view)
	want := []core.TID{1, 3, 0, 2}
	for i := range want {
		if tids[i] != want[i] {
			t.Fatalf("tids = %v, want %v", tids, want)
		}
	}
}

func TestLexSortShortInput(t *testing.T) {
	tids := []core.TID{5}
	LexSort(tids, core.Columns{{1}}, []int{0}, []int{2}, nil)
	if tids[0] != 5 {
		t.Fatal("single-element sort changed data")
	}
	LexSort(nil, core.Columns{{1}}, []int{0}, []int{2}, nil) // must not panic
}

// TestTopK checks TopK against a full sort: for every k the returned prefix
// is the sorted slice's, the input stays a permutation of itself, and k <= 0
// or k >= len sorts everything.
func TestTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cmp := func(a, b [2]int) int {
		if a[0] != b[0] {
			return b[0] - a[0] // rank descending
		}
		return a[1] - b[1] // id ascending: a strict total order
	}
	for n := 0; n < 40; n++ {
		xs := make([][2]int, n)
		for i := range xs {
			xs[i] = [2]int{rng.Intn(5), i}
		}
		want := slices.Clone(xs)
		slices.SortFunc(want, cmp)
		for _, k := range []int{-1, 0, 1, n / 2, n - 1, n, n + 3} {
			in := slices.Clone(xs)
			got := TopK(in, k, cmp)
			wantLen := n
			if k > 0 && k < n {
				wantLen = k
			}
			if !slices.Equal(got, want[:wantLen]) {
				t.Fatalf("n=%d k=%d: TopK = %v, want %v", n, k, got, want[:wantLen])
			}
			slices.SortFunc(in, cmp)
			if !slices.Equal(in, want) {
				t.Fatalf("n=%d k=%d: TopK lost elements: %v", n, k, in)
			}
		}
	}
}
