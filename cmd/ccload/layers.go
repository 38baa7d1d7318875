package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"ccubing"
	"ccubing/internal/core"
	"ccubing/internal/cubestore"
	"ccubing/internal/qcache"
	"ccubing/internal/serve"
)

// inproc is the in-process stack over one cube: the same HTTP handler ccserve
// mounts (serve.Server over serve.Local), the facade, and — for the traced
// pass — a cubestore built from the cube's cells through cubestore.Builder.
// It is both the oracle the TCP answers are byte-compared with and the lower
// depths of the differential replay.
type inproc struct {
	cube  *ccubing.Cube
	h     http.Handler
	store *cubestore.Store // traced pass only
	w     wire
	rec   recorder
}

func newInproc(cube *ccubing.Cube) *inproc {
	return &inproc{
		cube: cube,
		h:    serve.NewServer(serve.NewLocal(cube), serve.Config{}).Handler(),
		w:    wire{labeled: cube.Labeled()},
	}
}

// recorder is a reusable http.ResponseWriter capturing status and body.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// serveRaw parses raw HTTP request bytes and runs them through the handler:
// the whole server-side path of a request except the socket. The returned
// body is valid until the next call.
func (p *inproc) serveRaw(raw []byte) (int, []byte, error) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return 0, nil, err
	}
	p.rec.hdr = make(http.Header, 4)
	p.rec.status = 200
	p.rec.body.Reset()
	p.h.ServeHTTP(&p.rec, req)
	return p.rec.status, p.rec.body.Bytes(), nil
}

// answer is serveRaw for oracle use: a copy of the body of a 200 answer.
func (p *inproc) answer(raw []byte) ([]byte, error) {
	status, body, err := p.serveRaw(raw)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("in-process handler answered %d: %s", status, body)
	}
	return append([]byte(nil), body...), nil
}

// ---- prepared requests ----------------------------------------------------

// point is one point query prepared for every depth.
type point struct {
	raw  []byte  // HTTP request
	vals []int32 // cube codes, for facade and store calls
}

// olap is one slice or aggregate call prepared for every depth.
type olap struct {
	req   olapReq
	raw   []byte
	vals  []int32 // slice target in cube codes
	spec  ccubing.QuerySpec
	opt   ccubing.AggregateOptions
	sspec cubestore.Spec
	sopt  cubestore.AggOptions
}

func (p *inproc) codes(vals []int32) ([]int32, error) {
	if !p.w.labeled {
		return vals, nil
	}
	return p.cube.ParseCell(p.w.cell(vals))
}

func (p *inproc) preparePoints(qs [][]int32) ([]point, error) {
	out := make([]point, len(qs))
	for i, q := range qs {
		vals, err := p.codes(q)
		if err != nil {
			return nil, err
		}
		out[i] = point{raw: p.w.pointHTTP(q), vals: vals}
	}
	return out, nil
}

func (p *inproc) prepareOlap(rs []olapReq) ([]olap, error) {
	out := make([]olap, len(rs))
	for i, r := range rs {
		o := olap{req: r, raw: p.w.olapHTTP(r)}
		var err error
		if r.Slice {
			if o.vals, err = p.codes(r.Cell); err != nil {
				return nil, err
			}
		} else {
			if o.spec, err = p.cube.ParseSpec(p.w.where(r.Where)); err != nil {
				return nil, err
			}
			// Like serve.Local, ask the facade for every group and rank
			// outside: top_k is applied after the canonical tie-break.
			o.opt = ccubing.AggregateOptions{GroupBy: r.groupNames()}
			o.sopt = cubestore.AggOptions{GroupBy: r.GroupBy, AuxAgg: cubestore.AuxSum}
			if r.ByAux {
				o.opt.By, o.sopt.By = ccubing.ByAux, cubestore.ByAux
			}
			o.sspec = storeSpec(o.spec)
		}
		out[i] = o
	}
	return out, nil
}

func storeSpec(spec ccubing.QuerySpec) cubestore.Spec {
	out := cubestore.Spec{Preds: make([]cubestore.Pred, len(spec))}
	for d, q := range spec {
		sp := cubestore.Pred{Val: q.Value, Lo: q.Lo, Hi: q.Hi, Set: q.Set}
		switch q.Op {
		case ccubing.PredEq:
			sp.Kind = cubestore.PredEq
		case ccubing.PredRange:
			sp.Kind = cubestore.PredRange
		case ccubing.PredIn:
			sp.Kind = cubestore.PredIn
		}
		out.Preds[d] = sp
	}
	return out
}

// ---- depth operations -------------------------------------------------

var sinkCount int64 // keeps results of timed calls alive

func (p *inproc) facadeOlap(o *olap) error {
	if o.req.Slice {
		p.cube.Slice(o.vals, func(c ccubing.Cell) bool { sinkCount += c.Count; return true })
		return nil
	}
	rows, exact, err := p.cube.Aggregate(o.spec, o.opt)
	if err != nil {
		return err
	}
	if !exact {
		return fmt.Errorf("aggregate is not exact")
	}
	sinkCount += int64(len(rows))
	return nil
}

func (p *inproc) storeOlap(o *olap) {
	if o.req.Slice {
		p.store.Slice(o.vals, func(c core.Cell) bool { sinkCount += c.Count; return true })
		return
	}
	sinkCount += int64(len(p.store.Aggregate(o.sspec, o.sopt)))
}

// ---- build-side layers --------------------------------------------------

// buildLayers times the build pipeline layer by layer, from outside: the
// engine into a no-op visitor (engine + sink, no store), the store builder
// over the collected cells, the residual scan, and the snapshot round trip.
// It leaves p.store built for the store-depth replay.
func (r *run) buildLayers(p *inproc, ds *ccubing.Dataset, rg regime) error {
	opt := rg.options(1)
	opt.Closed = true

	t0 := time.Now()
	st, err := ccubing.Compute(ds, opt, nil)
	if err != nil {
		return err
	}
	r.set("engine.compute_s", time.Since(t0).Seconds())
	r.set("engine.cells", float64(st.Cells))

	nd := ds.NumDims()
	var arena []int32
	var counts []int64
	var auxes []float64
	if _, err := ccubing.Compute(ds, opt, func(c ccubing.Cell) {
		arena = append(arena, c.Values...)
		counts = append(counts, c.Count)
		auxes = append(auxes, c.Aux)
	}); err != nil {
		return err
	}
	t0 = time.Now()
	b := cubestore.NewBuilder(nd, rg.Measure)
	for i, n := range counts {
		b.Add(arena[i*nd:(i+1)*nd], n, auxes[i])
	}
	var resTime time.Duration
	if rg.MinSup > 1 {
		t1 := time.Now()
		res := cubestore.ComputeResidual(ds.Table().Cols, ds.Table().Aux, rg.MinSup, opt.Measure)
		resTime = time.Since(t1)
		if err := b.SetResidual(res); err != nil {
			return err
		}
		r.set("cubestore.residual_rows", float64(res.NumRows()))
	}
	if p.store, err = b.Build(); err != nil {
		return err
	}
	r.set("cubestore.build_s", (time.Since(t0) - resTime).Seconds())
	r.set("cubestore.residual_s", resTime.Seconds())
	r.check(p.store.NumCells() == p.cube.NumCells(), "store built through cubestore.Builder has %d cells, the facade's %d", p.store.NumCells(), p.cube.NumCells())

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := ccubing.Materialize(ds, rg.options(1)); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	r.set("facade.materialize_allocs", float64(m1.Mallocs-m0.Mallocs))
	r.set("facade.materialize_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))

	var snap bytes.Buffer
	t0 = time.Now()
	if err := p.cube.Save(&snap); err != nil {
		return err
	}
	r.set("cubestore.snapshot_save_s", time.Since(t0).Seconds())
	r.set("cubestore.snapshot_bytes", float64(snap.Len()))
	t0 = time.Now()
	loaded, err := ccubing.LoadCube(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return err
	}
	r.set("cubestore.snapshot_load_s", time.Since(t0).Seconds())
	r.check(loaded.NumCells() == p.cube.NumCells(), "snapshot round trip changed the cell count")
	return nil
}

// cacheGetNs times qcache.Get alone: the hot pool's keys in a cache of the
// serving capacity, probed in the hot sequence's order.
func cacheGetNs(hot []point, hotSeq []int) float64 {
	qc := qcache.New(queryCacheEntries)
	keys := make([][]byte, len(hot))
	for i, q := range hot {
		keys[i] = []byte(cellKey(q.vals))
		qc.Put(keys[i], i)
	}
	const rounds = 50
	t0 := time.Now()
	for n := 0; n < rounds; n++ {
		for _, i := range hotSeq {
			if v, ok := qc.Get(keys[i]); ok {
				sinkCount += int64(v.(int))
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(hotSeq))
}

// ---- read-side layers -----------------------------------------------------

// layerSample bounds how many requests of each kind the in-process depths
// replay: they run at microseconds per call, so a few thousand give stable
// means without stretching the traced pass.
const (
	layerPoints = 4000
	layerOlap   = 200
)

// readLayers replays the point and olap sequences at the three in-process
// depths and derives each read layer's time from the differences. tcpPoint
// and tcpOlap name the spans of the depth above (the TCP client), or "" when
// the workload's own access path is the facade.
func (r *run) readLayers(q *querySet, tcpPoint, tcpOlap string) {
	p, hotSeq, hot, cold, olaps := q.p, q.hotSeq, q.hot, q.cold, q.olap
	if len(cold) > layerPoints {
		cold = cold[:layerPoints]
	}
	if len(olaps) > layerOlap {
		olaps = olaps[:layerOlap]
	}
	if len(hotSeq) > layerPoints {
		hotSeq = hotSeq[:layerPoints]
	}
	// Each depth gets a cold result cache, like the server saw it.
	p.cube.SetQueryCache(queryCacheEntries)
	var ms0, ms1 runtime.MemStats

	// Depth: HTTP handler, in-process.
	runtime.ReadMemStats(&ms0)
	hp := r.phase("handler.point", tcpPoint, 1, len(cold), func(i int) {
		if status, _, err := p.serveRaw(cold[i].raw); err != nil || status != 200 {
			r.fail("in-process handler: point #%d: status %d: %v", i, status, err)
		}
	})
	runtime.ReadMemStats(&ms1)
	r.set("serve.handler_allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(cold)))
	var respBytes float64
	ho := r.phase("handler.olap", tcpOlap, 1, len(olaps), func(i int) {
		status, body, err := p.serveRaw(olaps[i].raw)
		if err != nil || status != 200 {
			r.fail("in-process handler: olap #%d: status %d: %v", i, status, err)
		}
		respBytes += float64(len(body))
	})
	r.set("serve.resp_bytes_olap", respBytes/float64(len(olaps)))

	// Depth: facade. Cold points first (every one misses the cache and
	// probes), then the hot sequence (nearly every one hits).
	p.cube.SetQueryCache(queryCacheEntries)
	ops0, groups0, cands0 := cubestore.ProbeTotals()
	fp := r.phase("facade.point", "handler.point", 1, len(cold), func(i int) {
		c, _ := p.cube.LookupStored(cold[i].vals)
		sinkCount += c.Count
	})
	ops1, groups1, cands1 := cubestore.ProbeTotals()
	r.set("cubestore.probe_groups_per_op", ratio(float64(groups1-groups0), float64(ops1-ops0)))
	r.set("cubestore.probe_candidates_per_op", ratio(float64(cands1-cands0), float64(ops1-ops0)))
	p.cube.SetQueryCache(queryCacheEntries)
	for _, q := range hot { // fill the cache: the hot pool fits it
		p.cube.LookupStored(q.vals)
	}
	fh := r.phase("facade.point_hot", "", 1, len(hotSeq), func(i int) {
		c, _ := p.cube.LookupStored(hot[hotSeq[i]].vals)
		sinkCount += c.Count
	})
	r.set("facade.query_hot_us", mean(fh.lat)*1e6)
	r.set("qcache.get_ns", cacheGetNs(hot, hotSeq))

	p.cube.SetQueryCache(queryCacheEntries)
	runtime.ReadMemStats(&ms0)
	fo := r.phase("facade.olap", "handler.olap", 1, len(olaps), func(i int) {
		if err := p.facadeOlap(&olaps[i]); err != nil {
			r.fail("facade: olap #%d: %v", i, err)
		}
	})
	runtime.ReadMemStats(&ms1)
	r.set("facade.aggregate_allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(olaps)))

	// Depth: cubestore, on the store built through cubestore.Builder.
	sp := r.phase("cubestore.point", "facade.point", 1, len(cold), func(i int) {
		c, _ := p.store.Lookup(cold[i].vals)
		sinkCount += c.Count
	})
	so := r.phase("cubestore.olap", "facade.olap", 1, len(olaps), func(i int) { p.storeOlap(&olaps[i]) })

	r.set("serve.handler_point_us", mean(hp.lat)*1e6)
	r.set("serve.handler_olap_ms", mean(ho.lat)*1e3)
	r.set("facade.query_us", mean(fp.lat)*1e6)
	r.set("facade.aggregate_ms", mean(fo.lat)*1e3)
	r.set("cubestore.probe_us", mean(sp.lat)*1e6)
	r.set("cubestore.aggregate_ms", mean(so.lat)*1e3)
	// handler − facade: request parse + JSON encode.
	r.set("serve.codec_point_us", (mean(hp.lat)-mean(fp.lat))*1e6)
	r.set("serve.codec_olap_ms", (mean(ho.lat)-mean(fo.lat))*1e3)
}
