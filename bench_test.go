package ccubing

// One benchmark family per figure of the paper's evaluation (Figs. 3-18),
// sharing the experiment definitions in internal/expt with cmd/ccbench, plus
// ablation benchmarks for the engines' pruning devices (Lemma 5, Lemma 6,
// the shortcut, star reduction, the dense budget).
//
// Scale: tuple counts are multiplied by CCUBING_BENCH_SCALE (default 0.005,
// i.e. 1K-5K tuples per dataset) so `go test -bench=.` completes in minutes.
// Run cmd/ccbench -scale 0.1 (or 1.0 for paper scale) for the full sweeps.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"ccubing/internal/engine"
	"ccubing/internal/expt"
	"ccubing/internal/gen"
	"ccubing/internal/mmcubing"
	"ccubing/internal/sink"
	"ccubing/internal/stararray"
	"ccubing/internal/startree"
	"ccubing/internal/table"
)

func benchScale() float64 {
	if s := os.Getenv("CCUBING_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.005
}

// benchFigure runs every (point, algorithm) pair of one figure as a
// sub-benchmark. Dataset generation happens outside the timer and is
// memoized across figures.
func benchFigure(b *testing.B, id string) {
	f, err := expt.Find(id, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range f.Points {
		tbl := p.Data()
		for _, a := range p.Algos {
			b.Run(p.Label+"/"+a.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var ns sink.Null
					if err := a.Run(tbl, &ns); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig03Tuples(b *testing.B)           { benchFigure(b, "fig03") }
func BenchmarkFig04Dimensions(b *testing.B)       { benchFigure(b, "fig04") }
func BenchmarkFig05Cardinality(b *testing.B)      { benchFigure(b, "fig05") }
func BenchmarkFig06Skew(b *testing.B)             { benchFigure(b, "fig06") }
func BenchmarkFig07Weather(b *testing.B)          { benchFigure(b, "fig07") }
func BenchmarkFig08Minsup(b *testing.B)           { benchFigure(b, "fig08") }
func BenchmarkFig09IcebergSkew(b *testing.B)      { benchFigure(b, "fig09") }
func BenchmarkFig10IcebergCard(b *testing.B)      { benchFigure(b, "fig10") }
func BenchmarkFig11WeatherMinsup(b *testing.B)    { benchFigure(b, "fig11") }
func BenchmarkFig12Dependence(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkFig13CubeSizeDep(b *testing.B)      { benchFigure(b, "fig13") }
func BenchmarkFig14CubeSizeMinsup(b *testing.B)   { benchFigure(b, "fig14") }
func BenchmarkFig15Switchpoint(b *testing.B)      { benchFigure(b, "fig15") }
func BenchmarkFig16MMOverhead(b *testing.B)       { benchFigure(b, "fig16") }
func BenchmarkFig17StarArrayPruning(b *testing.B) { benchFigure(b, "fig17") }
func BenchmarkFig18DimOrder(b *testing.B)         { benchFigure(b, "fig18") }

// BenchmarkParallelWorkers records the wall-clock speedup of the sharded
// parallel driver over the sequential path: a 200k-tuple skewed synthetic
// relation, closed cube, per engine and worker count, plus a control relation
// of 20 000 values per dimension, where no value is heavy and a shard per
// value would pay the engines' per-run set-up 20 000 times. Workers=1 is the
// direct sequential engine run; higher counts go through internal/parallel.
// The spill/ rows are ComputePartitioned over the same relation and options:
// the same decomposition with its shards on disk, so spill/X/workers=2 against
// X/workers=2 is what the spill costs, and workers=1 there is not a direct run.
// The datasets are intentionally NOT scaled by CCUBING_BENCH_SCALE so the
// numbers are comparable across machines; expect the speedup to track
// physical cores. The decomposition cubes the projection plus every shard;
// since single-value shards prune their wildcard slice and the seam is a
// count join, that is 0.9x the sequential CPU for CC(Star) and CC(StarArray)
// here, 1.15x for CC(MM) and 1.5x on the control (2.07x on the ccload
// build-star relation while the seam rescanned the relation, 1.05x now) — so
// on a single-core machine the parallel rows read level at best.
func BenchmarkParallelWorkers(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Skip("GOMAXPROCS=1: every worker count serializes onto one core, so the " +
			"parallel rows only measure the decomposition overhead, not speedup; " +
			"re-run with GOMAXPROCS>1 (or on a multi-core machine) for meaningful numbers")
	}
	ds, err := Synthetic(SyntheticConfig{T: 200_000, D: 6, C: 50, Skew: 1.2, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	control, err := Synthetic(SyntheticConfig{T: 120_000, D: 6, C: 20_000, Skew: 1, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4, runtime.NumCPU()}
	sort.Ints(counts)
	for _, c := range []struct {
		name   string
		ds     *Dataset
		alg    Algorithm
		minSup int64
	}{
		{"CC(StarArray)", ds, AlgStarArray, 8},
		{"CC(MM)", ds, AlgMM, 8},
		{"CC(Star)", ds, AlgStar, 8},
		{"control/CC(StarArray)", control, AlgStarArray, 2},
	} {
		prev := 0
		for _, w := range counts {
			if w == prev {
				continue // dedup when NumCPU is 1, 2 or 4
			}
			prev = w
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opt := Options{MinSup: c.minSup, Closed: true, Algorithm: c.alg, Workers: w}
					if _, err := Compute(c.ds, opt, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if c.ds != ds {
			continue
		}
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("spill/%s/workers=%d", c.name, w), func(b *testing.B) {
				opt := Options{MinSup: c.minSup, Closed: true, Algorithm: c.alg, Workers: w}
				popt := PartitionOptions{TempDir: b.TempDir()}
				for i := 0; i < b.N; i++ {
					if _, err := ComputePartitioned(c.ds, opt, popt, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ablationData is a dependent, mildly skewed dataset where closed pruning
// matters — the regime the Lemma 5/6 prunings target.
func ablationData() *table.Table {
	cards := []int{20, 20, 20, 20, 20, 20}
	return gen.MustSynthetic(gen.Config{
		T: int(40000 * benchScale() * 20), Cards: cards, S: 1, Seed: 3,
		Rules: gen.RulesForDependence(2, cards, 4),
	})
}

// BenchmarkAblationLemma5 measures Lemma 5 (closed-mask) pruning in
// C-Cubing(Star) and C-Cubing(StarArray).
func BenchmarkAblationLemma5(b *testing.B) {
	tbl := ablationData()
	run := func(b *testing.B, f func() error) {
		for i := 0; i < b.N; i++ {
			if err := f(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Star/on", func(b *testing.B) {
		run(b, func() error {
			var ns sink.Null
			return startree.Engine.Run(tbl, engine.Config{MinSup: 4, Closed: true}, &ns)
		})
	})
	b.Run("Star/off", func(b *testing.B) {
		run(b, func() error {
			var ns sink.Null
			return startree.Engine.Run(tbl, engine.Config{MinSup: 4, Closed: true, DisableLemma5: true}, &ns)
		})
	})
	b.Run("StarArray/on", func(b *testing.B) {
		run(b, func() error {
			var ns sink.Null
			return stararray.Engine.Run(tbl, engine.Config{MinSup: 4, Closed: true}, &ns)
		})
	})
	b.Run("StarArray/off", func(b *testing.B) {
		run(b, func() error {
			var ns sink.Null
			return stararray.Engine.Run(tbl, engine.Config{MinSup: 4, Closed: true, DisableLemma5: true}, &ns)
		})
	})
}

// BenchmarkAblationLemma6 measures the single-path pruning.
func BenchmarkAblationLemma6(b *testing.B) {
	tbl := ablationData()
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ns sink.Null
				err := startree.Engine.Run(tbl, engine.Config{MinSup: 4, Closed: true, DisableLemma6: off}, &ns)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationShortcut measures C-Cubing(MM)'s partition==min_sup
// closed-cell shortcut (the device behind its Fig. 16 low-min_sup win).
func BenchmarkAblationShortcut(b *testing.B) {
	tbl := ablationData()
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ns sink.Null
				err := mmcubing.Engine.Run(tbl, engine.Config{MinSup: 2, Closed: true, DisableShortcut: off}, &ns)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStarReduction measures star reduction in iceberg mode.
func BenchmarkAblationStarReduction(b *testing.B) {
	tbl := ablationData()
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ns sink.Null
				err := startree.Engine.Run(tbl, engine.Config{MinSup: 8, NoStarReduction: off}, &ns)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDenseBudget sweeps the MM-Cubing dense array budget.
func BenchmarkAblationDenseBudget(b *testing.B) {
	tbl := ablationData()
	for _, budget := range []int{1 << 8, 1 << 12, 1 << 16, 1 << 20} {
		b.Run(strconv.Itoa(budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ns sink.Null
				err := mmcubing.Engine.Run(tbl, engine.Config{MinSup: 4, Closed: true, DenseBudget: budget}, &ns)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
