package ccubing

// Serving-layer benchmarks: concurrent Cube.Query throughput and the cost of
// freezing closed cells into the cubestore versus building the QC-tree
// baseline from the same cells. scripts/bench.sh records these (with
// -benchmem) into BENCH_<date>.json.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/cubestore"
)

// benchSeed pins the dataset seed of every facade benchmark so runs are
// comparable across the BENCH_<date>.json series. scripts/bench.sh exports
// CCUBING_BENCH_SEED (default 23) and records it in the output.
func benchSeed() int64 {
	if s := os.Getenv("CCUBING_BENCH_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 23
}

// benchCubeDataset is sized for stable serving benchmarks: ~50k tuples,
// moderate cardinality, mild skew.
func benchCubeDataset(b *testing.B) *Dataset {
	b.Helper()
	ds, err := Synthetic(SyntheticConfig{T: 50_000, D: 6, C: 20, Skew: 1.1, Seed: benchSeed()})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkCubeQuery measures point-query throughput on a materialized cube,
// sequentially and with RunParallel across GOMAXPROCS goroutines (the store
// is immutable, so concurrent readers share it lock-free). The result cache
// is disabled so both arms measure the raw probe path, comparable with the
// pre-cache BENCH_*.json baselines.
//
// Why the parallel arm used to LOSE to sequential (~2x at the 2026-07-29
// baseline): every probe bumped one shared atomic probe counter, so
// concurrent readers serialized on a single contended cache line, and each
// probe allocated its prefix/rest scratch, serializing further on the
// allocator. Both are gone — probe counters are striped across padded cache
// lines and the probe scratch is pooled per store — so the parallel arm now
// degrades only by scheduling overhead on single-core machines instead of
// inter-core bouncing.
func BenchmarkCubeQuery(b *testing.B) {
	ds := benchCubeDataset(b)
	cube, err := Materialize(ds, Options{MinSup: 8, Workers: -1})
	if err != nil {
		b.Fatal(err)
	}
	cube.SetQueryCache(0)
	tb := ds.Table()
	// Pre-draw a query mix: full points, partial cells, sparse cells.
	const nq = 4096
	queries := make([][]int32, nq)
	rng := rand.New(rand.NewSource(1))
	for i := range queries {
		q := make([]int32, tb.NumDims())
		for d := range q {
			if rng.Intn(3) == 0 {
				q[d] = Star
			} else {
				q[d] = tb.Cols[d][rng.Intn(tb.NumTuples())]
			}
		}
		queries[i] = q
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cube.Query(queries[i%nq])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := rand.Int()
			for pb.Next() {
				cube.Query(queries[i%nq])
				i++
			}
		})
	})
}

// BenchmarkCubeQueryCached measures what the generation-keyed result cache
// buys on a repeating query mix: cold is the raw probe path (cache
// disabled), warm answers every query from the primed cache. The mix is the
// same 4096 queries as BenchmarkCubeQuery, so cold here tracks
// BenchmarkCubeQuery/sequential.
func BenchmarkCubeQueryCached(b *testing.B) {
	ds := benchCubeDataset(b)
	cube, err := Materialize(ds, Options{MinSup: 8, Workers: -1})
	if err != nil {
		b.Fatal(err)
	}
	tb := ds.Table()
	const nq = 4096
	queries := make([][]int32, nq)
	rng := rand.New(rand.NewSource(1))
	for i := range queries {
		q := make([]int32, tb.NumDims())
		for d := range q {
			if rng.Intn(3) == 0 {
				q[d] = Star
			} else {
				q[d] = tb.Cols[d][rng.Intn(tb.NumTuples())]
			}
		}
		queries[i] = q
	}
	b.Run("cold", func(b *testing.B) {
		cube.SetQueryCache(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cube.Query(queries[i%nq])
		}
	})
	b.Run("warm", func(b *testing.B) {
		cube.SetQueryCache(2 * nq) // fits the whole mix
		for _, q := range queries {
			cube.Query(q)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cube.Query(queries[i%nq])
		}
	})
}

// BenchmarkStoreBuild times freezing an already-computed closed cell set
// into the cubestore. For the bare QC-tree the original Quotient Cube system
// built from the same kind of cell set, see internal/qctree's
// BenchmarkBuildComparison.
func BenchmarkStoreBuild(b *testing.B) {
	ds := benchCubeDataset(b)
	for _, minsup := range []int64{32, 8} {
		cells, _, err := ComputeCollect(ds, Options{MinSup: minsup, Closed: true, Workers: -1})
		if err != nil {
			b.Fatal(err)
		}
		ccells := make([]core.Cell, len(cells))
		for i, c := range cells {
			ccells[i] = core.Cell{Values: c.Values, Count: c.Count}
		}
		b.Run(fmt.Sprintf("cubestore/cells=%d", len(cells)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sb := cubestore.NewBuilder(ds.NumDims(), false)
				for _, c := range ccells {
					sb.Add(c.Values, c.Count, 0)
				}
				if _, err := sb.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaterialize measures the full pipeline: compute + freeze + the
// snapshot round trip cost is covered by BenchmarkCubeSnapshot.
func BenchmarkMaterialize(b *testing.B) {
	ds := benchCubeDataset(b)
	for _, w := range []int{1, -1} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Materialize(ds, Options{MinSup: 8, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The build-mm regime of cmd/ccload: 120k tuples, 8 dimensions of
	// cardinality 50, Zipf 1, an integer sum measure, minsup 64 — AlgAuto
	// picks CC(MM), so the MultiWay kernel does most of the work.
	b.Run("build-mm", func(b *testing.B) {
		mm, err := Synthetic(SyntheticConfig{T: 120_000, D: 8, C: 50, Skew: 1, Seed: benchSeed()})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(benchSeed()))
		aux := make([]float64, mm.NumTuples())
		for i := range aux {
			aux[i] = float64(1 + rng.Intn(100))
		}
		if err := mm.SetMeasure(aux); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := Materialize(mm, Options{MinSup: 64, Measure: MeasureSum, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if c.Algorithm() != AlgMM {
				b.Fatalf("AlgAuto picked %v, want CC(MM)", c.Algorithm())
			}
		}
	})
}

// BenchmarkMaterializeNativeMeasure compares Materialize's measure path
// (engines fold the stored aggregate during aggregation-based checking, one
// scan) against the attachMeasure oracle the equivalence suite checks it
// with (count-only compute, then a second cuboid-grouped scan, then the
// freeze). Both produce bit-identical stores; native wins by roughly the
// cost of the second scan.
func BenchmarkMaterializeNativeMeasure(b *testing.B) {
	ds := benchCubeDataset(b)
	aux := make([]float64, ds.NumTuples())
	for i := range aux {
		aux[i] = float64(i%97) - 11
	}
	if err := ds.SetMeasure(aux); err != nil {
		b.Fatal(err)
	}
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Materialize(ds, Options{MinSup: 8, Measure: MeasureSum, Workers: -1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("postpass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cells, _, err := ComputeCollect(ds, Options{MinSup: 8, Closed: true, Workers: -1})
			if err != nil {
				b.Fatal(err)
			}
			if err := attachMeasure(ds, cells, MeasureSum); err != nil {
				b.Fatal(err)
			}
			sb := cubestore.NewBuilder(ds.NumDims(), true)
			for _, c := range cells {
				sb.Add(c.Values, c.Count, c.Aux)
			}
			if _, err := sb.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAggregateIcebergResidual measures group-by aggregation on an
// iceberg cube whose store carries the residual of the pruned mass — the
// price of exactness — against the same queries on a lossless minsup-1 cube
// (no residual to fold, but far more stored cells to enumerate). The result
// cache is disabled; every op pays the full enumeration + residual pass.
//
// The minsup arms draw exact predicates and a one-dimension group-by, which
// keep a sliver of the residual. The range and set arms are the load
// harness's aggregate shape on the iceberg cube — one range or value-set
// predicate keeping about a tenth of the tuples, two group-by dimensions,
// residual ≈ relation — where the residual fold and the per-group work
// dominate.
func BenchmarkAggregateIcebergResidual(b *testing.B) {
	ds := benchCubeDataset(b)
	aux := make([]float64, ds.NumTuples())
	for i := range aux {
		aux[i] = float64(i%97) - 11
	}
	if err := ds.SetMeasure(aux); err != nil {
		b.Fatal(err)
	}
	names := ds.Names()
	const nspec = 256
	specs := make([]QuerySpec, nspec)
	groups := make([][]string, nspec)
	rng := rand.New(rand.NewSource(benchSeed()))
	for i := range specs {
		spec := make(QuerySpec, ds.NumDims())
		for d := range spec {
			if rng.Intn(3) == 0 {
				spec[d] = Predicate{Op: PredEq, Value: int32(rng.Intn(20))}
			}
		}
		specs[i] = spec
		groups[i] = []string{names[rng.Intn(len(names))]}
	}
	run := func(b *testing.B, cube *Cube, specs []QuerySpec, groups [][]string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, exact, err := cube.Aggregate(specs[i%len(specs)], AggregateOptions{GroupBy: groups[i%len(specs)]})
			if err != nil {
				b.Fatal(err)
			}
			if !exact || rows == nil && i == 0 {
				b.Fatal("iceberg aggregate must stay exact")
			}
		}
	}
	for _, minsup := range []int64{1, 8} {
		cube, err := Materialize(ds, Options{MinSup: minsup, Measure: MeasureSum, Workers: -1})
		if err != nil {
			b.Fatal(err)
		}
		cube.SetQueryCache(0)
		label := fmt.Sprintf("minsup=%d/cells=%d", minsup, cube.NumCells())
		if minsup > 1 {
			label += fmt.Sprintf("/residual=%d", cube.snap().Store.ResidualRows())
		}
		b.Run(label, func(b *testing.B) { run(b, cube, specs, groups) })
		if minsup > 1 {
			for _, shape := range []string{"range", "set"} {
				sspecs, sgroups := benchSelectiveSpecs(ds, rng, 64, shape == "set")
				b.Run(shape, func(b *testing.B) { run(b, cube, sspecs, sgroups) })
			}
		}
	}
}

// benchSelectiveSpecs draws n aggregates of the load harness's shape: one
// predicate — a code range, or a value set when set — whose values carry
// 8-13% of the tuples, and two other dimensions to group by.
func benchSelectiveSpecs(ds *Dataset, rng *rand.Rand, n int, set bool) ([]QuerySpec, [][]string) {
	tb, cards, names := ds.Table(), ds.Cardinalities(), ds.Names()
	share := make([][]float64, len(cards))
	for d, col := range tb.Cols {
		share[d] = make([]float64, cards[d])
		for _, v := range col {
			share[d][v] += 1 / float64(len(col))
		}
	}
	specs := make([]QuerySpec, 0, n)
	groups := make([][]string, 0, n)
	for len(specs) < n {
		perm := rng.Perm(len(cards))
		pd := perm[0]
		var p Predicate
		var mass float64
		if set {
			p.Op = PredIn
			for _, v := range rng.Perm(cards[pd]) {
				if mass >= 0.08 {
					break
				}
				p.Set = append(p.Set, int32(v))
				mass += share[pd][v]
			}
		} else {
			p.Op, p.Lo = PredRange, int32(rng.Intn(cards[pd]))
			for p.Hi = p.Lo; ; p.Hi++ {
				mass += share[pd][p.Hi]
				if mass >= 0.08 || int(p.Hi) == cards[pd]-1 {
					break
				}
			}
		}
		if mass < 0.08 || mass > 0.13 {
			continue
		}
		spec := make(QuerySpec, len(cards))
		spec[pd] = p
		specs = append(specs, spec)
		groups = append(groups, []string{names[perm[1]], names[perm[2]]})
	}
	return specs, groups
}

// BenchmarkCubeSnapshot measures Save and Load of a materialized cube. The
// load cases are the two sized paths of LoadCube — an in-memory reader and a
// file — whose allocation count is what cmd/benchcmp gates: one buffer plus
// bookkeeping that grows with the cuboid groups, not with the cells.
func BenchmarkCubeSnapshot(b *testing.B) {
	ds := benchCubeDataset(b)
	cube, err := Materialize(ds, Options{MinSup: 8, Workers: -1})
	if err != nil {
		b.Fatal(err)
	}
	var blob bytes.Buffer
	if err := cube.Save(&blob); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(blob.Len()))
		for i := 0; i < b.N; i++ {
			if err := cube.Save(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(blob.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := LoadCube(bytes.NewReader(blob.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("loadfile", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "cube.ccube")
		if err := cube.SaveFile(path); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(blob.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := LoadCubeFile(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}
