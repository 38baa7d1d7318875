package ccubing

import (
	"math/rand"
	"testing"
)

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
		if n := testing.AllocsPerRun(1000, func() {
			if n, err := cube.AppendValues(batch, aux); err != nil || n != 25 {
				t.Fatalf("AppendValues = (%d, %v)", n, err)
			}
		}); n > 2 {
			t.Fatalf("measure=%v: a 25-row AppendValues allocates %v per call; want 1, at most 2", measure, n)
		} else {
			t.Logf("measure=%v: %v allocs per 25-row AppendValues", measure, n)
		}
	}
}
