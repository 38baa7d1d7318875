package parallel

import (
	"fmt"
	"math"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/sink"
	"ccubing/internal/table"

	_ "ccubing/internal/buc"
	_ "ccubing/internal/mmcubing"
	_ "ccubing/internal/obcheck"
	_ "ccubing/internal/qcdfs"
	_ "ccubing/internal/qctree"
	_ "ccubing/internal/stararray"
	_ "ccubing/internal/startree"
)

// testTables builds the two regimes the closed-pruning machinery cares
// about: a skewed relation and a dependent one (paper Sec. 5.3).
func testTables(t *testing.T) map[string]*table.Table {
	t.Helper()
	cards := []int{16, 9, 7, 5, 11}
	skewed, err := gen.Synthetic(gen.Config{T: 1200, Cards: cards, S: 1.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dependent, err := gen.Synthetic(gen.Config{
		T: 1200, Cards: cards, S: 0.8, Seed: 11,
		Rules: gen.RulesForDependence(2, cards, 12),
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*table.Table{"skewed": skewed, "dependent": dependent}
}

// engineModes lists every registered engine with the modes it supports.
func engineModes() []engine.Config {
	return []engine.Config{
		{MinSup: 1, Closed: true},
		{MinSup: 4, Closed: true},
		{MinSup: 1},
		{MinSup: 4},
	}
}

// TestRunMatchesSequential is the core equivalence property: for every
// engine, mode and dataset, the parallel driver emits cell-for-cell the same
// cube as a direct sequential run — and, handed a sub-relation (a third of
// the partition values, the shape an incremental refresh passes), exactly the
// sequential cells fixing the partition dimension to a value present in the
// sub-relation plus every cell with a wildcard on it.
func TestRunMatchesSequential(t *testing.T) {
	for name, tbl := range testTables(t) {
		for _, engName := range engine.Names() {
			eng := engine.MustLookup(engName)
			caps := eng.Capabilities()
			for _, ecfg := range engineModes() {
				if (ecfg.Closed && !caps.Closed) || (!ecfg.Closed && !caps.Iceberg) {
					continue
				}
				label := fmt.Sprintf("%s/%s/minsup=%d/closed=%v", name, engName, ecfg.MinSup, ecfg.Closed)
				t.Run(label, func(t *testing.T) {
					var want sink.Collector
					if err := eng.Run(tbl, ecfg, &want); err != nil {
						t.Fatal(err)
					}
					for _, cfg := range []Config{
						{Workers: 1},
						{Workers: 4},
						{Workers: 4, Dim: 2, Shards: 3},
					} {
						var got sink.Collector
						if err := Run(tbl, eng, ecfg, cfg, &got); err != nil {
							t.Fatal(err)
						}
						if diff := sink.DiffCells(got.Cells, want.Cells, 10); diff != "" {
							t.Fatalf("cfg %+v: parallel output differs from sequential:\n%s", cfg, diff)
						}
					}

					const dim = 0
					touched := func(v core.Value) bool { return v%3 == 1 }
					var tids []core.TID
					for tid, v := range tbl.Cols[dim] {
						if touched(v) {
							tids = append(tids, core.TID(tid))
						}
					}
					sub := tbl.Subset(tids)
					var wantSub []core.Cell
					for _, c := range want.Cells {
						if v := c.Values[dim]; v == core.Star || touched(v) {
							wantSub = append(wantSub, c)
						}
					}
					for _, workers := range []int{1, 4} {
						var got sink.Collector
						if err := RunSub(tbl, sub, eng, ecfg, Config{Workers: workers, Dim: dim}, &got); err != nil {
							t.Fatal(err)
						}
						if diff := sink.DiffCells(got.Cells, wantSub, 10); diff != "" {
							t.Fatalf("workers %d: sub-relation output differs from the sequential cells it should keep:\n%s", workers, diff)
						}
					}
				})
			}
		}
	}
}

// TestRunNativeMeasure checks native measure values survive the parallel
// decomposition for both measure-capable engines (iceberg and closed mode).
func TestRunNativeMeasure(t *testing.T) {
	tbl := testTables(t)["skewed"]
	aux := make([]float64, tbl.NumTuples())
	for i := range aux {
		aux[i] = float64(i%13) - 3.5
	}
	tbl.Aux = aux
	defer func() { tbl.Aux = nil }()

	cases := []struct {
		engName string
		ecfg    engine.Config
	}{
		{"BUC", engine.Config{MinSup: 3, Measure: core.MeasureSum}},
		{"BUC", engine.Config{MinSup: 3, Measure: core.MeasureAvg}},
		{"QC-DFS", engine.Config{MinSup: 1, Closed: true, Measure: core.MeasureSum}},
		{"QC-DFS", engine.Config{MinSup: 3, Closed: true, Measure: core.MeasureMax}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%v", c.engName, c.ecfg.Measure), func(t *testing.T) {
			eng := engine.MustLookup(c.engName)
			var want sink.Collector
			if err := eng.Run(tbl, c.ecfg, &want); err != nil {
				t.Fatal(err)
			}
			var got sink.Collector
			if err := Run(tbl, eng, c.ecfg, Config{Workers: 4}, &got); err != nil {
				t.Fatal(err)
			}
			wantAux := auxByKey(t, want.Cells)
			gotAux := auxByKey(t, got.Cells)
			if len(wantAux) != len(gotAux) {
				t.Fatalf("got %d cells, want %d", len(gotAux), len(wantAux))
			}
			for k, wa := range wantAux {
				ga, ok := gotAux[k]
				if !ok {
					t.Fatalf("missing cell %q", k)
				}
				if math.Abs(ga-wa) > 1e-9 {
					t.Fatalf("aux mismatch: got %g want %g", ga, wa)
				}
			}
		})
	}
}

func auxByKey(t *testing.T, cells []core.Cell) map[string]float64 {
	t.Helper()
	m := make(map[string]float64, len(cells))
	for _, c := range cells {
		k := c.Key()
		if _, dup := m[k]; dup {
			t.Fatalf("duplicate cell %v", c.Values)
		}
		m[k] = c.Aux
	}
	return m
}

// errEngine fails on tables over a size threshold, so shard jobs succeed and
// the final pass fails (or vice versa) depending on the threshold.
type errEngine struct{ maxTuples int }

func (errEngine) Name() string                      { return "err-engine" }
func (errEngine) Capabilities() engine.Capabilities { return engine.Capabilities{Iceberg: true} }
func (e errEngine) Run(t *table.Table, cfg engine.Config, out sink.Sink) error {
	if t.NumTuples() > e.maxTuples {
		return fmt.Errorf("table too large: %d tuples", t.NumTuples())
	}
	return nil
}

func TestRunPropagatesEngineError(t *testing.T) {
	tbl := testTables(t)["skewed"]
	err := Run(tbl, errEngine{maxTuples: 10}, engine.Config{MinSup: 1}, Config{Workers: 3}, &sink.Null{})
	if err == nil {
		t.Fatal("engine error did not propagate")
	}
}

// TestRunSingleDim checks the degenerate one-dimension fallback.
func TestRunSingleDim(t *testing.T) {
	tbl, err := gen.Synthetic(gen.Config{T: 200, Cards: []int{5}, S: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.MustLookup("CC(Star)")
	var want, got sink.Collector
	if err := eng.Run(tbl, engine.Config{MinSup: 1, Closed: true}, &want); err != nil {
		t.Fatal(err)
	}
	if err := Run(tbl, eng, engine.Config{MinSup: 1, Closed: true}, Config{Workers: 4}, &got); err != nil {
		t.Fatal(err)
	}
	if diff := sink.DiffCells(got.Cells, want.Cells, 10); diff != "" {
		t.Fatalf("single-dim output differs:\n%s", diff)
	}
}
