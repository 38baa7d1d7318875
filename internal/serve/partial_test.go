package serve

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestGroupDims pins the resolution Router and Local share with
// Cube.Aggregate: exact name first, decimal index second, duplicates once,
// ascending — and names that resolve to nothing left for the cube to reject.
func TestGroupDims(t *testing.T) {
	names := []string{"city", "product", "2"} // dimension 2 is named "2"
	for _, c := range []struct {
		groupBy []string
		want    []int
	}{
		{nil, []int{}},
		{[]string{"product", "city"}, []int{0, 1}},
		{[]string{"1", "product", "0"}, []int{0, 1}},
		{[]string{"2"}, []int{2}}, // the name wins over the index
		{[]string{"nope", "7", "-1", "city"}, []int{0}},
	} {
		if got := groupDims(names, c.groupBy); !slices.Equal(got, c.want) {
			t.Errorf("groupDims(%v) = %v, want %v", c.groupBy, got, c.want)
		}
	}
}

// TestLabelCacheConcurrent renders one cube's labels from many goroutines at
// once (run under -race): every answer must equal the one a fresh Local gives
// alone, whichever request filled the cache first.
func TestLabelCacheConcurrent(t *testing.T) {
	shared := NewLocal(avgLocal(t).Cube())
	reqs := []aggregateRequest{
		{GroupBy: []string{"city"}},
		{GroupBy: []string{"product", "city"}, TopK: 3},
		{GroupBy: []string{"year", "product"}, OrderBy: "aux"},
		{GroupBy: []string{"city", "product", "year"}, TopK: 2, AuxAgg: "max"},
	}
	want := make([]aggregateResponse, len(reqs))
	for i, req := range reqs {
		var err error
		if want[i], err = NewLocal(shared.Cube()).Aggregate(req); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(reqs)
				got, err := shared.Aggregate(reqs[i])
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%+v: %+v (%v), want %+v", reqs[i], got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
