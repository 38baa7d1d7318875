// Package expt defines the paper's experiments (Figs. 3-18, Sec. 5) as
// reusable specifications: datasets, parameter sweeps and algorithm rosters.
// cmd/ccbench renders them as row-printed tables; bench_test.go exposes each
// point as a testing.B benchmark. The `scale` parameter multiplies tuple
// counts (1.0 = paper scale: 0.2M-1M tuples); min_sup values are kept as
// printed in the paper, so a scaled-down run prunes relatively harder.
package expt

import (
	"fmt"
	"runtime"
	"sync"

	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/mmcubing"
	"ccubing/internal/obcheck"
	"ccubing/internal/order"
	"ccubing/internal/parallel"
	"ccubing/internal/qcdfs"
	"ccubing/internal/qctree"
	"ccubing/internal/sink"
	"ccubing/internal/stararray"
	"ccubing/internal/startree"
	"ccubing/internal/table"
)

// Algo names an algorithm variant runnable over a table.
type Algo struct {
	Name string
	Run  func(t *table.Table, out sink.Sink) error
}

// workers is the goroutine count every algorithm run uses; 1 is the
// sequential engines as the paper ran them. cmd/ccbench raises it via
// SetWorkers before running any figure (not safe mid-run).
var workers = 1

// SetWorkers follows the ccubing.Options.Workers convention: 0 and 1 run
// engines sequentially (as the paper did), larger values route runs through
// the parallel sharded driver with that many goroutines, and negative values
// use runtime.NumCPU(). It returns the resolved goroutine count. Call it
// once before running figures (not safe mid-run).
func SetWorkers(n int) int {
	switch {
	case n < 0:
		workers = runtime.NumCPU()
	case n == 0:
		workers = 1
	default:
		workers = n
	}
	return workers
}

// runEngine builds an Algo body running e, honoring the package worker count.
func runEngine(e *engine.Engine, cfg engine.Config) func(t *table.Table, out sink.Sink) error {
	return func(t *table.Table, out sink.Sink) error {
		if workers > 1 {
			return parallel.Run(t, e, cfg, parallel.Config{Workers: workers, Dim: -1}, out)
		}
		return e.Run(t, cfg, out)
	}
}

// closed is e computing the closed cube, under the name the paper's figures
// give it.
func closed(e *engine.Engine, minsup int64) Algo {
	return Algo{e.Name, runEngine(e, engine.Config{MinSup: minsup, Closed: true})}
}

// Closed-cubing rosters.
func ccMM(minsup int64) Algo { return closed(&mmcubing.Engine, minsup) }

func ccStar(minsup int64) Algo { return closed(&startree.Engine, minsup) }

func ccStarArray(minsup int64) Algo { return closed(&stararray.Engine, minsup) }

func qcDFS(minsup int64) Algo { return closed(&qcdfs.Engine, minsup) }

// qcTree is QC-DFS plus QC-tree materialization: the full work of the
// original Quotient Cube system (the binary the paper benchmarked).
func qcTree(minsup int64) Algo { return closed(&qctree.Engine, minsup) }

// obBUC is output-based closedness checking (closed-pattern-mining style,
// paper Sec. 2.2.2), an addition beyond the paper's roster that makes the
// third checking approach measurable.
func obBUC(minsup int64) Algo { return closed(&obcheck.Engine, minsup) }

func plainMM(minsup int64) Algo {
	return Algo{"MM", runEngine(&mmcubing.Engine, engine.Config{MinSup: minsup})}
}

func plainStarArray(minsup int64) Algo {
	return Algo{"StarArray", runEngine(&stararray.Engine, engine.Config{MinSup: minsup})}
}

func orderedStarArray(name string, s order.Strategy, minsup int64) Algo {
	run := runEngine(&stararray.Engine, engine.Config{MinSup: minsup, Closed: true})
	return Algo{name, func(t *table.Table, out sink.Sink) error {
		ot, _, err := order.Apply(t, s)
		if err != nil {
			return err
		}
		// Cell dimension positions differ under reordering, but the
		// experiments only time and count cells, so no remapping is needed.
		return run(ot, out)
	}}
}

// Point is one x-axis position of a figure: a dataset plus the algorithms
// to run on it.
type Point struct {
	Label string
	Data  func() *table.Table // generator; memoized by the harness
	Algos []Algo
}

// Figure is one experiment of the evaluation section.
type Figure struct {
	ID     string
	Title  string
	Params string
	// Kind selects how ccbench reports the figure: "time" (seconds per
	// algorithm), "size" (cube MB per algorithm), or "best" (winner name).
	Kind   string
	Points []Point
}

// cache memoizes generated datasets across figures and benchmarks.
var cache sync.Map

func cached(key string, build func() *table.Table) func() *table.Table {
	return func() *table.Table {
		if v, ok := cache.Load(key); ok {
			return v.(*table.Table)
		}
		t := build()
		cache.Store(key, t)
		return t
	}
}

func scaled(n int, scale float64) int {
	s := int(float64(n) * scale)
	if s < 100 {
		s = 100
	}
	return s
}

func synth(scale float64, t, d, c int, s float64, r float64) func() *table.Table {
	key := fmt.Sprintf("synth/T%d/D%d/C%d/S%g/R%g/x%g", t, d, c, s, r, scale)
	return cached(key, func() *table.Table {
		cfg := gen.Config{T: scaled(t, scale), D: d, C: c, S: s, Seed: 1}
		if r > 0 {
			cards := make([]int, d)
			for i := range cards {
				cards[i] = c
			}
			cfg.Rules = gen.RulesForDependence(r, cards, 2)
		}
		return gen.MustSynthetic(cfg)
	})
}

func weather(scale float64, nd int) func() *table.Table {
	key := fmt.Sprintf("weather/D%d/x%g", nd, scale)
	return cached(key, func() *table.Table {
		return gen.MustWeather(1, scaled(gen.WeatherTuples, scale), nd)
	})
}

// mixed builds the Fig. 18 dataset: four dimensions of cardinality 10 and
// four of cardinality 1000, with skews 0,1,2,3 in each group.
func mixed(scale float64) func() *table.Table {
	key := fmt.Sprintf("mixed/x%g", scale)
	return cached(key, func() *table.Table {
		return gen.MustSynthetic(gen.Config{
			T:     scaled(400000, scale),
			Cards: []int{10, 10, 10, 10, 1000, 1000, 1000, 1000},
			Skews: []float64{0, 1, 2, 3, 0, 1, 2, 3},
			Seed:  1,
		})
	})
}

func fullClosedRoster(minsup int64) []Algo {
	return []Algo{
		ccMM(minsup), ccStar(minsup), ccStarArray(minsup),
		qcDFS(minsup), qcTree(minsup),
	}
}

func icebergClosedRoster(minsup int64) []Algo {
	return []Algo{ccMM(minsup), ccStar(minsup), ccStarArray(minsup)}
}

// Figures builds every experiment at the given scale.
func Figures(scale float64) []Figure {
	var figs []Figure

	// Fig. 3: full closed cube vs. tuple count.
	{
		var pts []Point
		for _, t := range []int{200000, 400000, 600000, 800000, 1000000} {
			pts = append(pts, Point{
				Label: fmt.Sprintf("T=%dK", scaled(t, scale)/1000),
				Data:  synth(scale, t, 10, 100, 0, 0),
				Algos: fullClosedRoster(1),
			})
		}
		figs = append(figs, Figure{"fig03", "Closed Cube w.r.t. Tuples",
			"D=10, C=100, S=0, M=1", "time", pts})
	}

	// Fig. 4: full closed cube vs. dimensionality.
	{
		var pts []Point
		for d := 6; d <= 10; d++ {
			pts = append(pts, Point{
				Label: fmt.Sprintf("D=%d", d),
				Data:  synth(scale, 1000000, d, 100, 2, 0),
				Algos: fullClosedRoster(1),
			})
		}
		figs = append(figs, Figure{"fig04", "Closed Cube w.r.t. Dimension",
			"T=1000K, S=2, C=100, M=1", "time", pts})
	}

	// Fig. 5: full closed cube vs. cardinality.
	{
		var pts []Point
		for _, c := range []int{10, 100, 1000, 10000} {
			pts = append(pts, Point{
				Label: fmt.Sprintf("C=%d", c),
				Data:  synth(scale, 1000000, 8, c, 1, 0),
				Algos: fullClosedRoster(1),
			})
		}
		figs = append(figs, Figure{"fig05", "Closed Cube w.r.t. Cardinality",
			"T=1000K, D=8, S=1, M=1", "time", pts})
	}

	// Fig. 6: full closed cube vs. skew.
	{
		var pts []Point
		for s := 0; s <= 3; s++ {
			pts = append(pts, Point{
				Label: fmt.Sprintf("S=%d", s),
				Data:  synth(scale, 1000000, 8, 100, float64(s), 0),
				Algos: fullClosedRoster(1),
			})
		}
		figs = append(figs, Figure{"fig06", "Closed Cube w.r.t. Skew",
			"T=1000K, C=100, D=8, M=1", "time", pts})
	}

	// Fig. 7: full closed cube on the weather dataset vs. dimensions.
	{
		var pts []Point
		for d := 5; d <= 8; d++ {
			pts = append(pts, Point{
				Label: fmt.Sprintf("D=%d", d),
				Data:  weather(scale, d),
				Algos: fullClosedRoster(1),
			})
		}
		figs = append(figs, Figure{"fig07", "Closed Cube, Weather Data",
			"M=1, dims 5-8", "time", pts})
	}

	// Fig. 8: closed iceberg vs. min_sup.
	{
		var pts []Point
		for _, m := range []int64{2, 4, 8, 16} {
			pts = append(pts, Point{
				Label: fmt.Sprintf("M=%d", m),
				Data:  synth(scale, 1000000, 8, 100, 0, 0),
				Algos: icebergClosedRoster(m),
			})
		}
		figs = append(figs, Figure{"fig08", "Closed Iceberg w.r.t. Minsup",
			"T=1000K, C=100, S=0, D=8", "time", pts})
	}

	// Fig. 9: closed iceberg vs. skew.
	{
		var pts []Point
		for s := 0; s <= 3; s++ {
			pts = append(pts, Point{
				Label: fmt.Sprintf("S=%d", s),
				Data:  synth(scale, 1000000, 8, 100, float64(s), 0),
				Algos: icebergClosedRoster(10),
			})
		}
		figs = append(figs, Figure{"fig09", "Closed Iceberg w.r.t. Skew",
			"T=1000K, D=8, C=100, M=10", "time", pts})
	}

	// Fig. 10: closed iceberg vs. cardinality.
	{
		var pts []Point
		for _, c := range []int{10, 100, 1000, 10000} {
			pts = append(pts, Point{
				Label: fmt.Sprintf("C=%d", c),
				Data:  synth(scale, 1000000, 8, c, 1, 0),
				Algos: icebergClosedRoster(10),
			})
		}
		figs = append(figs, Figure{"fig10", "Closed Iceberg w.r.t. Cardinality",
			"T=1000K, D=8, S=1, M=10", "time", pts})
	}

	// Fig. 11: closed iceberg on weather vs. min_sup.
	{
		var pts []Point
		for _, m := range []int64{2, 4, 8, 16} {
			pts = append(pts, Point{
				Label: fmt.Sprintf("M=%d", m),
				Data:  weather(scale, 8),
				Algos: icebergClosedRoster(m),
			})
		}
		figs = append(figs, Figure{"fig11", "Closed Iceberg w.r.t. Minsup, Weather Data",
			"D=8", "time", pts})
	}

	// Fig. 12: closed iceberg vs. data dependence.
	{
		var pts []Point
		for r := 0; r <= 3; r++ {
			pts = append(pts, Point{
				Label: fmt.Sprintf("R=%d", r),
				Data:  synth(scale, 400000, 8, 20, 0, float64(r)),
				Algos: []Algo{ccMM(16), ccStar(16)},
			})
		}
		figs = append(figs, Figure{"fig12", "Cube Computation w.r.t. Data Dependence",
			"T=400K, D=8, C=20, S=0, M=16", "time", pts})
	}

	// Fig. 13: cube size vs. data dependence.
	{
		var pts []Point
		for r := 0; r <= 3; r++ {
			pts = append(pts, Point{
				Label: fmt.Sprintf("R=%d", r),
				Data:  synth(scale, 400000, 8, 20, 0, float64(r)),
				Algos: []Algo{
					{Name: "ClosedIceberg", Run: ccStarArray(16).Run},
					{Name: "Iceberg", Run: plainMM(16).Run},
				},
			})
		}
		figs = append(figs, Figure{"fig13", "Cube Size w.r.t. Data Dependence",
			"T=400K, D=8, C=20, S=0, M=16", "size", pts})
	}

	// Fig. 14: cube size vs. min_sup at fixed dependence R=2.
	{
		var pts []Point
		for _, m := range []int64{1, 4, 16, 64} {
			pts = append(pts, Point{
				Label: fmt.Sprintf("M=%d", m),
				Data:  synth(scale, 400000, 8, 20, 0, 2),
				Algos: []Algo{
					{Name: "ClosedIceberg", Run: ccStarArray(m).Run},
					{Name: "Iceberg", Run: plainMM(m).Run},
				},
			})
		}
		figs = append(figs, Figure{"fig14", "Cube Size w.r.t. Minsup",
			"T=400K, D=8, C=20, S=0, R=2", "size", pts})
	}

	// Fig. 15: best algorithm across (min_sup, dependence).
	{
		var pts []Point
		for r := 1; r <= 3; r++ {
			for _, m := range []int64{1, 4, 16, 64, 256} {
				pts = append(pts, Point{
					Label: fmt.Sprintf("R=%d,M=%d", r, m),
					Data:  synth(scale, 400000, 8, 20, 0, float64(r)),
					Algos: []Algo{ccMM(m), ccStar(m)},
				})
			}
		}
		figs = append(figs, Figure{"fig15", "Best Algorithm, Varying Minsup and Dependence",
			"T=400K, D=8, C=20, S=0", "best", pts})
	}

	// Fig. 16: closed-checking overhead of C-Cubing(MM) vs MM-Cubing
	// (weather data, output disabled — the harness always uses a Null sink).
	{
		var pts []Point
		for _, m := range []int64{1, 2, 4, 8, 16, 32} {
			pts = append(pts, Point{
				Label: fmt.Sprintf("M=%d", m),
				Data:  weather(scale, 8),
				Algos: []Algo{ccMM(m), plainMM(m)},
			})
		}
		figs = append(figs, Figure{"fig16", "Overhead of Closed Checking (MM), Weather Data",
			"D=8, output disabled", "time", pts})
	}

	// Fig. 17: closed-pruning benefit of C-Cubing(StarArray) vs StarArray.
	{
		var pts []Point
		for _, m := range []int64{1, 2, 4, 8, 16, 32} {
			pts = append(pts, Point{
				Label: fmt.Sprintf("M=%d", m),
				Data:  weather(scale, 8),
				Algos: []Algo{ccStarArray(m), plainStarArray(m)},
			})
		}
		figs = append(figs, Figure{"fig17", "Benefits of Closed Pruning (StarArray), Weather Data",
			"D=8, output disabled", "time", pts})
	}

	// Fig. 18: dimension ordering strategies on mixed-cardinality data.
	{
		var pts []Point
		for _, m := range []int64{1, 4, 16, 64, 256} {
			pts = append(pts, Point{
				Label: fmt.Sprintf("M=%d", m),
				Data:  mixed(scale),
				Algos: []Algo{
					orderedStarArray("Org", order.Original, m),
					orderedStarArray("Card", order.ByCardinality, m),
					orderedStarArray("Entropy", order.ByEntropy, m),
				},
			})
		}
		figs = append(figs, Figure{"fig18", "Cube Computation w.r.t. Dimension Order",
			"T=400K, D=8, C=10/1000, S=0..3", "time", pts})
	}

	// figA (addition beyond the paper): the three closedness-checking
	// approaches side by side — aggregation-based (C-Cubing), raw-data-based
	// (QC-DFS / QC-Tree) and output-based (OB-BUC, whose subsumption index
	// is the bottleneck Sec. 2.2.2 predicts). OB-BUC's cost grows
	// super-linearly with output size, so this experiment uses a kept-small
	// dataset rather than the Fig. 3 sweep.
	{
		var pts []Point
		for _, m := range []int64{1, 4, 16} {
			pts = append(pts, Point{
				Label: fmt.Sprintf("M=%d", m),
				Data:  synth(scale/4, 1000000, 8, 100, 1, 0),
				Algos: []Algo{ccStar(m), ccStarArray(m), qcDFS(m), qcTree(m), obBUC(m)},
			})
		}
		figs = append(figs, Figure{"figA", "Closedness-Checking Approaches (addition)",
			"T=250K, D=8, C=100, S=1", "time", pts})
	}

	return figs
}

// Find returns the figure with the given ID at the given scale.
func Find(id string, scale float64) (Figure, error) {
	for _, f := range Figures(scale) {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("expt: unknown figure %q", id)
}
