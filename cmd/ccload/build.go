package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ccubing"
	"ccubing/internal/parallel"
)

// Shape of the in-process workloads: facade calls run at microseconds, so the
// segments are large in operations and 5-15 ms in time. Every timed build is
// followed by passesPerBuild passes of the tracks on the cube it produced.
const (
	inprocPass      = 25 // segments per pass
	passesPerBuild  = 3
	inprocHotPer    = 20000
	inprocColdPer   = 420
	inprocOlapPer   = 3
	inprocAppendPer = 400 // AppendValues calls of appendRows rows
	oracleSamples   = 2000
	// inprocBlocks timed blocks per point segment, about half a millisecond
	// each.
	inprocBlocks = 10
	// tracedInprocShrink divides the in-process segment sizes on a traced
	// run, where every operation leaves a span.
	tracedInprocShrink = 50
)

// appendRows is the size of one append batch, over TCP and in-process.
const appendRows = 25

func buildRegime(name string) (regime, ccubing.Algorithm) {
	switch name {
	case "build-mm":
		return regimeMM, ccubing.AlgMM
	case "build-stararray":
		return regimeStarArray, ccubing.AlgStarArray
	}
	return regimeStar, ccubing.AlgStar
}

// inprocN shrinks an in-process segment size on a traced run.
func (r *run) inprocN(base int) int {
	if r.trace {
		return max(1, base/tracedInprocShrink)
	}
	return base
}

// appendBatches draws n append batches of appendRows existing tuples each,
// with their measure values when the relation carries one.
func appendBatches(rows [][]int32, aux []float64, rng *rand.Rand, n int) (batches [][][]int32, auxes [][]float64) {
	batches, auxes = make([][][]int32, n), make([][]float64, n)
	for i := range batches {
		batches[i] = make([][]int32, appendRows)
		if aux != nil {
			auxes[i] = make([]float64, appendRows)
		}
		for j := range batches[i] {
			tid := rng.Intn(len(rows))
			batches[i][j] = append([]int32(nil), rows[tid]...) // a copy: the batches outlive rows
			if aux != nil {
				auxes[i][j] = aux[tid]
			}
		}
	}
	return batches, auxes
}

// facadeAppend is the append track of the in-process workloads:
// Cube.AppendValues on cube(), the library's write path — validate, buffer
// into the delta log — never refreshed, so reads do not move.
func (r *run) facadeAppend(ds *ccubing.Dataset, cube func() *ccubing.Cube) *track {
	rng := rand.New(rand.NewSource(r.seed ^ 0x61707064))
	batches, auxes := appendBatches(rowsOf(ds), ds.Table().Aux, rng, 64)
	return &track{name: "facade.append", per: r.inprocN(inprocAppendPer), blocks: inprocBlocks, pass: shortPass, op: func(i int) {
		if n, err := cube().AppendValues(batches[i%len(batches)], auxes[i%len(batches)]); err != nil || n != appendRows {
			r.fail("append #%d: %d rows buffered: %v", i, n, err)
		}
	}}
}

// runBuild is the in-process workload: the public facade only. ready_s is the
// paper's core cost, Materialize; rebuild_s is the same build with every CPU;
// the read and append metrics are what a program embedding the library sees
// on the cube it just built. The timed builds are spread over the run: each
// is followed by passes of the tracks, on the cube it produced. The harness
// is pinned like everywhere else (the collector then shares the CPU with the
// build instead of borrowing the noisier one) and released for the Workers=-1
// builds only.
func runBuild(r *run) error {
	rg, wantAlg := buildRegime(r.wl.Name)
	t0 := time.Now()
	ds, err := relation(rg, r.seed)
	if err != nil {
		return err
	}
	r.set("gen.synthetic_s", time.Since(t0).Seconds())
	cube, err := ccubing.Materialize(ds, rg.options(1)) // warm-up: grows the heap once
	if err != nil {
		return err
	}
	r.check(cube.Algorithm() == wantAlg, "AlgAuto picked %v for this regime, the workload is meant to run %v", cube.Algorithm(), wantAlg)
	olapPer := r.inprocN(inprocOlapPer)
	q, err := newQuerySet(r, cube, ds, rg, inprocPass*olapPer)
	if err != nil {
		return err
	}
	olapOracle := map[int]map[string]aggRow{}
	for i := 0; i < len(q.olap); i += olapVerifyEvery {
		if !q.olap[i].req.Slice {
			olapOracle[i] = bruteAggregate(ds, q.olap[i].req)
		}
	}
	r.ready()

	rt := readTracks{
		hot: &track{name: "facade.hot", per: r.inprocN(inprocHotPer), blocks: inprocBlocks, pass: shortPass, op: func(i int) {
			n, _ := cube.Query(q.hot[q.hotSeq[i%len(q.hotSeq)]].vals)
			sinkCount += n
		}},
		cold: &track{name: "facade.cold", per: r.inprocN(inprocColdPer), blocks: inprocBlocks, pass: inprocPass, op: func(i int) {
			n, _ := cube.Query(q.cold[i%len(q.cold)].vals)
			sinkCount += n
		}},
		olap: &track{name: "facade.olap", per: olapPer, blocks: olapPer, pass: inprocPass, op: func(i int) {
			o := &q.olap[i]
			want, sampled := olapOracle[i]
			if !sampled {
				if err := q.p.facadeOlap(o); err != nil {
					r.fail("olap #%d: %v", i, err)
				}
				return
			}
			rows, exact, err := cube.Aggregate(o.spec, o.opt)
			if err != nil || !exact {
				r.fail("olap #%d: exact=%v err=%v", i, exact, err)
				return
			}
			if msg := diffAggregate(rows, want, rg.Measure); msg != "" {
				r.fail("olap #%d (%+v): %s", i, o.req, msg)
			}
		}},
		app: r.facadeAppend(ds, func() *ccubing.Cube { return cube }),
	}
	builds := max(2, (r.passes+1)/passesPerBuild)
	var seq, par []float64
	cells := cube.NumCells()
	var hotHits, hotMisses, coldHits, coldMisses int64
	for rep := 0; rep < builds; rep++ {
		cube = nil // at most one cube is alive while the next is built
		t0 := time.Now()
		c, err := ccubing.Materialize(ds, rg.options(1))
		if err != nil {
			return err
		}
		seq = append(seq, time.Since(t0).Seconds())
		r.check(c.NumCells() == cells, "Materialize repetition %d built %d cells, the first %d", rep, c.NumCells(), cells)
		cube = c
		q.p = newInproc(cube)
		if rep == builds-1 {
			r.set("cube_bytes_per_tuple", float64(cube.Bytes())/float64(rg.T))
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			r.set("mem_mb", float64(ms.HeapAlloc)/(1<<20))
		}
		for _, p := range q.hot { // a fresh cube has an empty cache; the hot keys are resident by definition
			cube.Query(p.vals)
		}
		if r.trace {
			// Tracks one after the other, so the cache counters belong to one.
			h0, m0 := cube.QueryCacheMetrics()
			r.rounds(shortPass, rt.hot)
			h1, m1 := cube.QueryCacheMetrics()
			r.rounds(inprocPass, rt.cold)
			h2, m2 := cube.QueryCacheMetrics()
			r.rounds(inprocPass, rt.olap)
			r.rounds(shortPass, rt.app)
			hotHits, hotMisses = hotHits+h1-h0, hotMisses+m1-m0
			coldHits, coldMisses = coldHits+h2-h1, coldMisses+m2-m1
		} else {
			r.rounds(passesPerBuild*inprocPass, rt.all()...)
		}
		// The same build with every CPU, on every CPU.
		s, err := r.parallelBuild(ds, rg, cells)
		if err != nil {
			return err
		}
		par = append(par, s)
	}
	r.publish(rt)
	fmt.Printf("# Materialize Workers=1 %s  Workers=-1 %s\n", compact(seq), compact(par))
	r.set("ready_s", kthSmallest(seq, 1))
	r.set("rebuild_s", kthSmallest(par, 1))
	r.set("client.ready_median_s", median(seq))

	// Verification, outside the timed tracks: sampled cells against a
	// brute-force scan of the relation, count and sum.
	r.checkCells(cube, q, ds, rg, oracleSamples)

	if r.trace {
		r.set("qcache.hit_ratio_hot", ratio(float64(hotHits), float64(hotHits+hotMisses)))
		r.set("qcache.hit_ratio_cold", ratio(float64(coldHits), float64(coldHits+coldMisses)))
		r.set("client.trace_overhead_ratio", ratio(r.untracedRate(rt.cold), rt.cold.rate()))
		r.clientLayers(rt)
		if err := r.buildLayers(q.p, ds, rg); err != nil {
			return err
		}
		r.shardLayer(ds)
		r.set("parallel.speedup", ratio(kthSmallest(seq, 1), kthSmallest(par, 1)))
		r.readLayers(q, "", "")
	}
	return nil
}

// parallelBuild times Materialize with Workers=-1 on every CPU the harness
// may use; the cube must have the sequential build's cell count.
func (r *run) parallelBuild(ds *ccubing.Dataset, rg regime, cells int64) (float64, error) {
	unpinSelf()
	defer func() {
		if err := pinSelf(); err != nil {
			r.fail("re-pinning after the parallel build: %v", err)
		}
	}()
	t0 := time.Now()
	c, err := ccubing.Materialize(ds, rg.options(-1))
	if err != nil {
		return 0, err
	}
	s := time.Since(t0).Seconds()
	r.check(c.NumCells() == cells, "Workers=-1 built %d cells, Workers=1 %d", c.NumCells(), cells)
	return s, nil
}

// shardLayer times the shard pass of the parallel build alone.
func (r *run) shardLayer(ds *ccubing.Dataset) {
	t := ds.Table()
	dim := 0
	for d := range t.Cards {
		if t.Cards[d] > t.Cards[dim] {
			dim = d
		}
	}
	ns := min(4*runtime.NumCPU(), t.Cards[dim])
	t0 := time.Now()
	shards := parallel.ShardTables(t, dim, ns)
	r.set("parallel.shard_s", time.Since(t0).Seconds())
	sinkCount += int64(len(shards))
}

// ---- query sets -----------------------------------------------------------

// verifyEvery is the sampling stride of answer verification on a single
// node: about 1 point request in 50 is compared with the oracle.
const verifyEvery = 50

// querySet is one seeded set of read requests over a cube, prepared for
// every depth: a hot pool that fits the result cache with a Zipf(1.1) access
// sequence, a cold pool larger than the cache, and distinct olap calls.
type querySet struct {
	p      *inproc
	hotQ   [][]int32
	coldQ  [][]int32
	hot    []point
	cold   []point
	hotSeq []int
	olap   []olap
}

func newQuerySet(r *run, cube *ccubing.Cube, ds *ccubing.Dataset, rg regime, nOlap int) (*querySet, error) {
	rng := rand.New(rand.NewSource(r.seed ^ 0x71756572))
	q := &querySet{p: newInproc(cube)}
	cells := sampleCells(cube, rng, 2*(hotPoolSize+coldPoolSize))
	cards := ds.Cardinalities()
	q.hotQ = pointPool(cells[:2*hotPoolSize], cards, rng, hotPoolSize)
	q.coldQ = pointPool(cells[2*hotPoolSize:], cards, rng, coldPoolSize)
	q.hotSeq = zipfSeq(rng, 1.1, hotPoolSize, 1<<17)
	var err error
	if q.hot, err = q.p.preparePoints(q.hotQ); err != nil {
		return nil, err
	}
	if q.cold, err = q.p.preparePoints(q.coldQ); err != nil {
		return nil, err
	}
	q.olap, err = q.p.prepareOlap(olapPool(rowsOf(ds), cards, rg.Measure, false, rng, nOlap))
	return q, err
}

// ---- brute-force oracle -------------------------------------------------

type cellAnswer struct {
	count int64
	sum   float64
	ok    bool
}

// bruteOracle answers point queries by scanning the relation: a cell is
// found iff its tuple count reaches minsup, and then carries that count and
// the sum of the measure — what a closed cube must return for it.
func bruteOracle(ds *ccubing.Dataset, qs [][]int32, minsup int64) []cellAnswer {
	t := ds.Table()
	out := make([]cellAnswer, len(qs))
	for i, q := range qs {
		var a cellAnswer
	tuples:
		for tid := 0; tid < t.NumTuples(); tid++ {
			for d, v := range q {
				if v != ccubing.Star && t.Cols[d][tid] != v {
					continue tuples
				}
			}
			a.count++
			if t.Aux != nil {
				a.sum += t.Aux[tid]
			}
		}
		if a.ok = a.count >= minsup; !a.ok {
			a = cellAnswer{}
		}
		out[i] = a
	}
	return out
}

type aggRow struct {
	count int64
	sum   float64
}

func (p pred) match(v int32) bool {
	switch p.Kind {
	case predRange:
		return v >= p.Lo && v <= p.Hi
	case predSet:
		for _, s := range p.Set {
			if v == s {
				return true
			}
		}
		return false
	}
	return true
}

// bruteAggregate computes a group-by from the relation itself: every group's
// count and measure sum, keyed by the group's full-width cell.
func bruteAggregate(ds *ccubing.Dataset, req olapReq) map[string]aggRow {
	t := ds.Table()
	out := map[string]aggRow{}
	key := make([]int32, t.NumDims())
tuples:
	for tid := 0; tid < t.NumTuples(); tid++ {
		for d, p := range req.Where {
			if !p.match(t.Cols[d][tid]) {
				continue tuples
			}
		}
		for d := range key {
			key[d] = ccubing.Star
		}
		for _, d := range req.GroupBy {
			key[d] = t.Cols[d][tid]
		}
		k := cellKey(key)
		a := out[k]
		a.count++
		if t.Aux != nil {
			a.sum += t.Aux[tid]
		}
		out[k] = a
	}
	return out
}

// diffAggregate compares the facade's complete group list with the scan's.
func diffAggregate(rows []ccubing.Cell, want map[string]aggRow, measure bool) string {
	if len(rows) != len(want) {
		return fmt.Sprintf("%d groups, a scan of the relation finds %d", len(rows), len(want))
	}
	for _, c := range rows {
		w, ok := want[cellKey(c.Values)]
		if !ok || w.count != c.Count || (measure && w.sum != c.Aux) {
			return fmt.Sprintf("group %v: cube says (%d, %g), a scan of the relation (%d, %g, present=%v)", c.Values, c.Count, c.Aux, w.count, w.sum, ok)
		}
	}
	return ""
}
