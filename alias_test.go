package ccubing

// Regression tests for result aliasing: rows handed out by Lookup, Slice and
// Aggregate must be private copies — never views of the pooled probe scratch
// or of slices retained by the query cache. A caller that scribbles on its
// result must not be able to corrupt a later answer. The store's
// TestRetainedResults guards the scratch side (internal/cubestore); these
// tests pin the cache side end to end, with caching on and off.

import (
	"reflect"
	"testing"
)

// aliasTestCube builds a small measure-bearing cube (cache on by default).
func aliasTestCube(t *testing.T) *Cube {
	t.Helper()
	ds, err := NewDatasetFromValues(nil, [][]int32{
		{0, 0, 0},
		{0, 1, 0},
		{1, 0, 1},
		{1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetMeasure([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

func clobber(vals []int32) {
	for i := range vals {
		vals[i] = -99
	}
}

func TestLookupResultIsNotAliased(t *testing.T) {
	for _, cached := range []bool{true, false} {
		t.Run(map[bool]string{true: "cache", false: "nocache"}[cached], func(t *testing.T) {
			cube := aliasTestCube(t)
			if !cached {
				cube.SetQueryCache(0)
			}
			cell := []int32{0, Star, Star}
			first, ok := cube.Lookup(cell)
			if !ok {
				t.Fatal("Lookup missed a present cell")
			}
			want := append([]int32(nil), first.Values...)
			wantCount := first.Count

			clobber(first.Values)

			second, ok := cube.Lookup(cell)
			if !ok {
				t.Fatal("Lookup missed after caller mutation")
			}
			if !reflect.DeepEqual(second.Values, want) || second.Count != wantCount {
				t.Fatalf("mutating a returned row changed a later answer: got %v (count %d), want %v (count %d)",
					second.Values, second.Count, want, wantCount)
			}
		})
	}
}

func TestAggregateResultIsNotAliased(t *testing.T) {
	for _, cached := range []bool{true, false} {
		t.Run(map[bool]string{true: "cache", false: "nocache"}[cached], func(t *testing.T) {
			cube := aliasTestCube(t)
			if !cached {
				cube.SetQueryCache(0)
			}
			spec := make(QuerySpec, cube.NumDims()) // unconstrained
			opt := AggregateOptions{GroupBy: []string{"0"}, AuxAgg: MeasureSum}

			first, _, err := cube.Aggregate(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(first) == 0 {
				t.Fatal("aggregate returned no rows")
			}
			want := make([]Cell, len(first))
			for i, r := range first {
				want[i] = Cell{Values: append([]int32(nil), r.Values...), Count: r.Count, Aux: r.Aux}
			}

			for i := range first {
				clobber(first[i].Values)
				first[i].Count = -1
			}

			// Re-run twice: the first re-run fills or hits the cache, the
			// second is a guaranteed hit when caching is on — both must be
			// untouched by the clobber above.
			for pass := 0; pass < 2; pass++ {
				again, _, err := cube.Aggregate(spec, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, want) {
					t.Fatalf("pass %d: mutating returned rows changed a later answer:\ngot  %+v\nwant %+v",
						pass, again, want)
				}
			}
		})
	}
}

// TestQueryAfterSliceMutation covers the pooled-scratch side dynamically: a
// Slice caller mutating visited cells must not perturb subsequent point
// queries that reuse the same pooled probe scratch.
func TestQueryAfterSliceMutation(t *testing.T) {
	cube := aliasTestCube(t)
	cube.SetQueryCache(0) // force every query through the store's scratch path

	cell := []int32{0, Star, Star}
	wantN, ok := cube.Query(cell)
	if !ok {
		t.Fatal("Query missed a present cell")
	}

	cube.Slice([]int32{Star, Star, Star}, func(c Cell) bool {
		clobber(c.Values)
		return true
	})

	if n, ok := cube.Query(cell); !ok || n != wantN {
		t.Fatalf("Query after Slice-mutation = %d, %v; want %d, true", n, ok, wantN)
	}
}
