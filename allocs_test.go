package ccubing

import (
	"math/rand"
	"runtime/debug"
	"testing"
)

// allocs is testing.AllocsPerRun with the garbage collector off, so no GC can
// empty a pool mid-measurement and the count is exact.
func allocs(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestAppendValuesAllocs gates the hottest write call, the one behind the
// build-* workloads' ingest_rows_per_s: a 25-row coded append is one Mutate of
// an all-append batch — rows passed through as they are, nil kinds, the staged
// delta's lock alone, no row keys — and allocates the flattened values, nothing per row
// (3 before ISSUE 22: a copy of the row headers and the log's kinds as well).
// The machine-independent proxy for that throughput.
func TestAppendValuesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are not meaningful")
	}
	rng := rand.New(rand.NewSource(5))
	cards := []int{50, 50, 50, 50}
	for _, measure := range []bool{false, true} {
		ds, err := NewDatasetFromValues(nil, randomRows(rng, cards, 500, nil))
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{MinSup: 4}
		var aux []float64
		if measure {
			if err := ds.SetMeasure(make([]float64, 500)); err != nil {
				t.Fatal(err)
			}
			opt.Measure, aux = MeasureSum, make([]float64, 25)
		}
		cube, err := Materialize(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		batch := randomRows(rng, cards, 25, nil)
		if n := allocs(1000, func() {
			if n, err := cube.AppendValues(batch, aux); err != nil || n != 25 {
				t.Fatalf("AppendValues = (%d, %v)", n, err)
			}
		}); n != 1 {
			t.Fatalf("measure=%v: a 25-row AppendValues allocates %v per call; want 1", measure, n)
		}
	}
}

// TestQueryAllocs gates Cube.Query, the point read behind every /v1/query:
// a cache hit builds its key on the stack and a probe of the store reuses
// pooled scratch, so neither allocates, with the query cache on or off.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are not meaningful")
	}
	rng := rand.New(rand.NewSource(9))
	ds, err := NewDatasetFromValues(nil, randomRows(rng, []int{8, 6, 5, 4}, 2000, nil))
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 2})
	if err != nil {
		t.Fatal(err)
	}
	hit := []int32{1, Star, 2, Star}
	miss := []int32{8, Star, Star, Star}
	for _, cached := range []bool{true, false} {
		if !cached {
			cube.SetQueryCache(0)
		}
		for name, q := range map[string][]int32{"hit": hit, "miss": miss} {
			cube.Query(q) // a cached run fills the entry here
			if n := allocs(1000, func() { cube.Query(q) }); n != 0 {
				t.Fatalf("cache=%v: Query(%s) allocates %v per call; want 0", cached, name, n)
			}
		}
	}
	if _, ok := cube.Query(hit); !ok {
		t.Fatal("the hit query missed; the gate would not see a hit")
	}
}
