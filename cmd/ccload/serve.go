package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ccubing"
)

// Per-segment request counts of the single-node TCP tracks: segments of
// 6-20 ms.
const (
	tcpHotPer  = 200
	tcpColdPer = 220
	tcpOlapPer = 6
	// tcpPass segments make one pass of a served track. A pass's cold
	// requests (distinct, and more than the result cache holds) evict what the
	// previous pass cached — its cold points and, the cache being shared, its
	// olap answers — so every pass does the first one's work. -seconds changes
	// the number of passes, never their length (TestPassOutrunsCache).
	tcpPass = 20
	// shortPass segments make one pass of a track whose repetitions do not
	// depend on the cache having been churned in between — hot points, whose
	// keys are resident throughout, and appends — so those get more
	// repetitions for every block to choose from.
	shortPass = 10
)

// tcpBlocks timed blocks per point segment: about a millisecond of requests
// each. Every olap call is its own block.
const tcpBlocks = 10

// oracleAnchor brute-force cells anchor the in-process oracle of a served
// workload.
const oracleAnchor = 200

// olapVerifyEvery samples olap answers more densely than points (there are
// far fewer of them), and is odd so that it alternates between the slices
// and the aggregates of the alternating sequence.
const olapVerifyEvery = 25

// readPlan is one seeded read sequence over TCP with the oracle's answers
// for the sampled requests (nil elsewhere), indexed by sequence position.
type readPlan struct {
	q                         *querySet
	pass                      int // segments per pass
	hotPer, coldPer, olapPer  int
	wantHot, wantCold, wantOl [][]byte
}

func (pl *readPlan) hotReq(i int) []byte  { return pl.q.hot[pl.q.hotSeq[i%len(pl.q.hotSeq)]].raw }
func (pl *readPlan) coldReq(i int) []byte { return pl.q.cold[i%len(pl.q.cold)].raw }
func (pl *readPlan) olapReq(i int) []byte { return pl.q.olap[i%len(pl.q.olap)].raw }

func at(want [][]byte) func(int) []byte {
	return func(i int) []byte {
		if i < len(want) {
			return want[i]
		}
		return nil
	}
}

// newReadPlan computes the oracle's answers through the in-process handler
// over the harness's own cube, for one point request in every.
func newReadPlan(q *querySet, oracle *inproc, pass, hotPer, coldPer, olapPer, every int) (*readPlan, error) {
	pl := &readPlan{q: q, pass: pass, hotPer: hotPer, coldPer: coldPer, olapPer: olapPer}
	fill := func(n, every int, req func(int) []byte) ([][]byte, error) {
		want := make([][]byte, n)
		for i := 0; i < n; i += every {
			var err error
			if want[i], err = oracle.answer(req(i)); err != nil {
				return nil, err
			}
		}
		return want, nil
	}
	var err error
	if pl.wantHot, err = fill(shortPass*hotPer, every, pl.hotReq); err != nil {
		return nil, err
	}
	if pl.wantCold, err = fill(pass*coldPer, every, pl.coldReq); err != nil {
		return nil, err
	}
	pl.wantOl, err = fill(pass*olapPer, olapVerifyEvery, pl.olapReq)
	return pl, err
}

// readTracks are the three read tracks every served workload runs:
// point-hot (keys resident in the result cache, so qcache and the HTTP codec
// do the work), point-cold (every request probes the store), olap (aggregate
// engine, residual fold and JSON encode dominate).
//
// app is the append track that runs beside them where the access path takes
// appends (nil where it does not: a snapshot server is fed by reloads).
type readTracks struct{ hot, cold, olap, app *track }

// newReadTracks binds a plan to a connection, with app as the append track.
func (r *run) newReadTracks(c *conn, pl *readPlan, app *track) readTracks {
	return readTracks{
		hot:  &track{name: "tcp.hot", per: pl.hotPer, blocks: tcpBlocks, pass: shortPass, op: r.httpOp(c, "point-hot", pl.hotReq, at(pl.wantHot))},
		cold: &track{name: "tcp.cold", per: pl.coldPer, blocks: tcpBlocks, pass: pl.pass, op: r.httpOp(c, "point-cold", pl.coldReq, at(pl.wantCold))},
		olap: &track{name: "tcp.olap", per: pl.olapPer, blocks: pl.olapPer, pass: pl.pass, op: r.httpOp(c, "olap", pl.olapReq, at(pl.wantOl))},
		app:  app,
	}
}

func (rt readTracks) reads() []*track { return []*track{rt.hot, rt.cold, rt.olap} }
func (rt readTracks) all() []*track {
	if rt.app == nil {
		return rt.reads()
	}
	return append(rt.reads(), rt.app)
}

// publish reports the tracks and sets the throughput metrics from them.
func (r *run) publish(rt readTracks) {
	for _, t := range rt.all() {
		t.report()
	}
	r.set("point_hot_qps", rt.hot.rate())
	r.set("point_cold_qps", rt.cold.rate())
	r.set("olap_qps", rt.olap.rate())
	if rt.app != nil {
		r.set("ingest_rows_per_s", rt.app.rate()*appendRows)
	}
}

// tracedReads is the traced pass's version of the read rounds: the tracks
// one after the other, each bracketed by scrapes of the server's own
// counters, so that every server-side number belongs to one track.
func (r *run) tracedReads(c *conn, srv *proc, pl *readPlan, rt readTracks) error {
	r.warmHot(c, pl)
	for _, t := range rt.reads() {
		s0, err := scrapeServer(c, srv)
		if err != nil {
			return err
		}
		r.rounds(t.pass, t) // one pass: means need no repetition, and nothing would evict between two
		s1, err := scrapeServer(c, srv)
		if err != nil {
			return err
		}
		r.serverLayers(t, s0, s1)
	}
	return nil
}

// scrape is one reading of a server's own counters.
type scrape struct {
	prom   promText
	hits   float64
	misses float64
	cpu    float64
}

func scrapeServer(c *conn, srv *proc) (scrape, error) {
	var s scrape
	body, err := c.get("/metrics")
	if err != nil {
		return s, err
	}
	s.prom = parsePromText(string(body))
	s.hits = s.prom.value("ccubing_cache_hits_total")
	s.misses = s.prom.value("ccubing_cache_misses_total")
	s.cpu, err = cpuSeconds(srv.pid())
	return s, err
}

// serverLayers turns a pair of scrapes around one track into the server-side
// per-layer numbers of that track.
func (r *run) serverLayers(t *track, s0, s1 scrape) {
	reqs := float64(len(t.segQPS) * t.per)
	hitRatio := ratio(s1.hits-s0.hits, s1.hits-s0.hits+s1.misses-s0.misses)
	cpuPer := (s1.cpu - s0.cpu) / reqs
	since := func(endpoint string) float64 {
		label := `endpoint="` + endpoint + `"`
		return s1.prom.histSum("ccubing_http_request_seconds", label) - s0.prom.histSum("ccubing_http_request_seconds", label)
	}
	switch t.name {
	case "tcp.hot":
		r.set("qcache.hit_ratio_hot", hitRatio)
	case "tcp.cold":
		r.set("qcache.hit_ratio_cold", hitRatio)
		srvMean := since("query") / reqs
		r.set("serve.http_point_us", srvMean*1e6)
		r.set("serve.transport_point_us", (mean(t.lat)-srvMean)*1e6)
		r.set("serve.cpu_us_per_req_point", cpuPer*1e6)
	case "tcp.olap":
		r.set("serve.http_olap_ms", (since("slice")+since("aggregate"))/reqs*1e3)
		r.set("serve.cpu_ms_per_req_olap", cpuPer*1e3)
	}
}

// cubeMeta is the part of GET /v1/cube the harness reads.
type cubeMeta struct {
	Cells      int64  `json:"cells"`
	SizeBytes  int64  `json:"size_bytes"`
	SourceRows int64  `json:"source_rows"`
	Generation uint64 `json:"generation"`
}

func getMeta(c *conn) (cubeMeta, error) {
	var m cubeMeta
	body, err := c.get("/v1/cube")
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(body, &m)
}

func saveCube(cube *ccubing.Cube, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = cube.Save(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// bootTimed starts a server and times exec → first correct answer to probe
// (any 200 answer when want is nil). The port was probed free a moment
// before the child binds it; should another process have taken it meanwhile,
// the boot is retried on a fresh one.
func bootTimed(bin string, probe []byte, want []byte, args ...string) (*proc, float64, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		t0 := time.Now()
		var p *proc
		if p, err = startServer(bin, args...); err != nil {
			return nil, 0, err
		}
		if err = p.waitAnswer(probe, func(body []byte) bool { return want == nil || bytes.Equal(body, want) }); err == nil {
			return p, time.Since(t0).Seconds(), nil
		}
		p.kill()
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, 0, err
}

// warmHot makes every hot key resident (a refresh just emptied the cache).
func (r *run) warmHot(c *conn, pl *readPlan) {
	for _, q := range pl.q.hot {
		if status, body, err := c.do(q.raw); err != nil || status != 200 {
			r.fail("warm-up: status %d: %v %s", status, err, body)
		}
	}
}

// warm brings the server to the state the tracks hold it in: the result
// cache full (a cache's worth of cold-pool requests, from the pool's tail,
// which the measured tracks reach last), then every hot key resident.
func (r *run) warm(c *conn, pl *readPlan) {
	send := func(raw []byte) {
		if status, body, err := c.do(raw); err != nil || status != 200 {
			r.fail("warm-up: status %d: %v %s", status, err, body)
		}
	}
	for i := 0; i < queryCacheEntries && i < len(pl.q.cold); i++ {
		send(pl.q.cold[len(pl.q.cold)-1-i].raw)
	}
	r.warmHot(c, pl)
}

// reloadTimed tells a snapshot server to reload its snapshot — the warm path
// by which it takes an offline rebuild — and times POST /v1/reload → 200; the
// probe must still draw the correct answer afterwards.
func (r *run) reloadTimed(p *proc, probe, want []byte) (float64, error) {
	c, err := dial(p.addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	t0 := time.Now()
	status, body, err := c.do(postHTTP("/v1/reload", nil))
	s := time.Since(t0).Seconds()
	if err != nil || status != 200 {
		return 0, fmt.Errorf("reload: status %d: %v %s", status, err, body)
	}
	status, body, err = c.do(probe)
	r.check(err == nil && status == 200 && (want == nil || bytes.Equal(body, want)), "after a reload the probe draws status %d: %v %s", status, err, body)
	return s, nil
}

// runServe drives one ccserve -snapshot over loopback TCP.
func runServe(r *run) error {
	rg := regimeStar
	t0 := time.Now()
	ds, err := relation(rg, r.seed)
	if err != nil {
		return err
	}
	r.set("gen.synthetic_s", time.Since(t0).Seconds())
	cube, err := ccubing.Materialize(ds, rg.options(1))
	if err != nil {
		return err
	}
	snap := filepath.Join(r.dir, "cube.ccube")
	if err := saveCube(cube, snap); err != nil {
		return err
	}
	q, err := newQuerySet(r, cube, ds, rg, tcpPass*tcpOlapPer)
	if err != nil {
		return err
	}
	pl, err := newReadPlan(q, q.p, tcpPass, tcpHotPer, tcpColdPer, tcpOlapPer, verifyEvery)
	if err != nil {
		return err
	}
	r.checkCells(cube, q, ds, rg, oracleAnchor)
	probe := q.hot[0].raw
	probeWant, err := q.p.answer(probe)
	if err != nil {
		return err
	}
	gcOn := quietGC()
	defer gcOn()
	var boots, reloads, feeds []float64
	boot := func() (*proc, error) {
		p, s, err := bootTimed(r.bin, probe, probeWant, "-snapshot", snap)
		boots = append(boots, s)
		r.attempted++
		return p, err
	}
	srv, err := boot()
	if err != nil {
		return err
	}
	c, err := dial(srv.addr)
	if err != nil {
		return err
	}
	defer c.close()
	r.warm(c, pl)
	r.ready()

	rt := r.newReadTracks(c, pl, nil)
	var untraced float64
	if r.trace {
		untraced = r.untracedRate(rt.cold)
	}
	// The remaining cold boots are throwaway servers beside the serving one,
	// spread over the run like every other repetition. Each is then fed the
	// way a snapshot server takes rows in: the cube is saved again and the
	// server told to reload it.
	for k := 0; k < r.passes*tcpPass; k++ {
		if k%tcpPass == 0 { // one per pass
			p, err := boot()
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := saveCube(cube, snap); err != nil {
				return err
			}
			save := time.Since(t0).Seconds()
			s, err := r.reloadTimed(p, probe, probeWant)
			p.kill()
			if err != nil {
				return err
			}
			reloads, feeds = append(reloads, s), append(feeds, save+s)
		}
		if !r.trace {
			r.rounds(1, rt.all()...)
		}
	}
	if r.trace {
		if err := r.tracedReads(c, srv, pl, rt); err != nil {
			return err
		}
	}
	r.publish(rt)
	fmt.Printf("# boots %s\n# reloads %s\n# save+reload %s\n", compact(boots), compact(reloads), compact(feeds))
	r.set("ready_s", kthSmallest(boots, 1))
	r.set("rebuild_s", kthSmallest(reloads, 1))
	r.set("ingest_rows_per_s", ratio(float64(rg.T), kthSmallest(feeds, 1)))
	r.set("client.ready_median_s", median(boots))

	meta, err := getMeta(c)
	if err != nil {
		return err
	}
	r.check(meta.Cells == cube.NumCells() && meta.SourceRows == int64(rg.T),
		"server reports %d cells over %d rows, the harness built %d over %d", meta.Cells, meta.SourceRows, cube.NumCells(), rg.T)
	r.set("cube_bytes_per_tuple", float64(meta.SizeBytes)/float64(meta.SourceRows))
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}
	r.set("mem_mb", rss)

	if r.trace {
		r.set("client.trace_overhead_ratio", ratio(untraced, rt.cold.rate()))
		gcOn()
		r.clientLayers(rt)
		if err := r.buildLayers(q.p, ds, rg); err != nil {
			return err
		}
		r.readLayers(q, "tcp.cold", "tcp.olap")
		r.set("client.point_cold_qps_c2", r.unpinnedC2(pl, srv))
	}
	return nil
}

// checkCells compares the cube's answers to the first n cold queries with a
// brute-force scan of the relation, count and sum. The build workloads
// verify their cubes with it; the served workloads anchor their in-process
// oracle with it.
func (r *run) checkCells(cube *ccubing.Cube, q *querySet, ds *ccubing.Dataset, rg regime, n int) {
	for i, want := range bruteOracle(ds, q.coldQ[:n], rg.MinSup) {
		got, ok := cube.Lookup(q.cold[i].vals)
		r.check(ok == want.ok && (!ok || (got.Count == want.count && (!rg.Measure || got.Aux == want.sum))),
			"cell %v: cube says (%d, %g, %v), a scan of the relation (%d, %g, %v)",
			q.coldQ[i], got.Count, got.Aux, ok, want.count, want.sum, want.ok)
	}
}

// untracedRate replays one pass of a track with tracing off — the loop the
// end-to-end pass runs — for the tracing-overhead comparison.
func (r *run) untracedRate(t *track) float64 {
	base := &track{per: t.per, op: t.op}
	r.trace = false
	r.rounds(t.pass, base)
	r.trace = true
	return base.rate()
}

// clientLayers reports the access path's own latency distribution from the
// traced tracks.
func (r *run) clientLayers(rt readTracks) {
	r.set("client.point_hot_p50_us", median(rt.hot.lat)*1e6)
	r.set("client.point_cold_p50_us", median(rt.cold.lat)*1e6)
	r.set("client.point_cold_p99_us", percentile(rt.cold.lat, 0.99)*1e6)
	r.set("client.olap_p50_ms", median(rt.olap.lat)*1e3)
	r.set("client.olap_p99_ms", percentile(rt.olap.lat, 0.99)*1e3)
	r.set("client.segment_spread", max(rt.hot.segSpread(), rt.cold.segSpread(), rt.olap.segSpread()))
}

// unpinnedC2 is the informational concurrency view: harness and servers
// released to every CPU, two connections replaying the cold sequence.
func (r *run) unpinnedC2(pl *readPlan, srvs ...*proc) float64 {
	unpinSelf()
	for _, s := range srvs {
		if err := setAffinityAll(s.pid(), &origMask); err != nil {
			r.fail("unpinning ccserve: %v", err)
			return 0
		}
	}
	front := srvs[len(srvs)-1] // the process clients talk to
	per := 10 * pl.coldPer
	var wg sync.WaitGroup
	var mu sync.Mutex
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := dial(front.addr)
			if err != nil {
				mu.Lock()
				r.fail("c2 dial: %v", err)
				mu.Unlock()
				return
			}
			defer c.close()
			for i := 0; i < per; i++ {
				if status, _, err := c.do(pl.coldReq(g*per + i)); err != nil || status != 200 {
					mu.Lock()
					r.fail("c2 request: status %d: %v", status, err)
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	r.attempted += int64(2 * per)
	return float64(2*per) / time.Since(t0).Seconds()
}
