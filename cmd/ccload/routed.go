package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"ccubing"
	"ccubing/internal/serve"
)

// Shape of the routed workload: a routed request crosses two sockets, so the
// segments are shorter in requests and about as long in time as the
// single-node ones.
const (
	routedHotPer  = 50
	routedColdPer = 100
	routedOlapPer = 4
	// routedPass segments make one pass. Every pass runs on a freshly booted
	// topology with only the hot keys warmed, so each starts from the same
	// caches: a pass's cold requests split unevenly over the two workers
	// (dimension 0 is Zipf-skewed) and cannot be relied on to evict what the
	// last pass cached. Within a pass every cold and olap request is distinct.
	routedPass   = 15
	routedShards = 2
	// routedVerifyEvery samples point answers more densely than the single
	// node does: only a quarter of them are scattered, and a third of those
	// are exempt. Odd, so that the samples reach the scattered positions.
	routedVerifyEvery = 7
)

// topology is two shard workers and the router in front of them.
type topology struct {
	workers []*proc
	router  *proc
}

func (t *topology) kill() {
	if t.router != nil {
		t.router.kill()
	}
	for _, w := range t.workers {
		w.kill()
	}
}

func (t *topology) procs() []*proc { return append(append([]*proc(nil), t.workers...), t.router) }

// bootTopology starts the workers one after the other, then the router, and
// times exec of the first worker → first correct answer through the router.
func bootTopology(bin string, snaps []string, probe, want []byte) (*topology, float64, error) {
	t0 := time.Now()
	t := &topology{}
	urls := make([]string, len(snaps))
	for i, snap := range snaps {
		w, _, err := bootTimed(bin, probe, nil, "-snapshot", snap, "-shard", fmt.Sprintf("%d/%d", i, len(snaps)))
		if err != nil {
			t.kill()
			return nil, 0, err
		}
		t.workers = append(t.workers, w)
		urls[i] = w.addr
	}
	var err error
	if t.router, _, err = bootTimed(bin, probe, want, "-router", strings.Join(urls, ",")); err != nil {
		t.kill()
		return nil, 0, err
	}
	return t, time.Since(t0).Seconds(), nil
}

// routedPoints composes n point queries from a pool, three quarters binding
// dimension 0 (forwarded to the owning worker) and one quarter leaving it
// wildcard (scattered, count-sum + closure-meet merge), a scattered one at
// every fourth position: the hot sequence weights a key by its position, so
// the mix must hold at every prefix, not only over the whole pool.
func routedPoints(pool [][]int32, n int) [][]int32 {
	var bound, scat [][]int32
	for _, q := range pool {
		if q[0] == ccubing.Star {
			scat = append(scat, q)
		} else {
			bound = append(bound, q)
		}
	}
	if len(scat) < n/4 || len(bound) < n-n/4 {
		panic(fmt.Sprintf("ccload: %d scattered and %d dimension-0-bound candidates for %d routed point queries; sample more cells", len(scat), len(bound), n))
	}
	out := make([][]int32, 0, n)
	for len(out) < n {
		if len(out)%4 == 3 {
			out, scat = append(out, scat[0]), scat[1:]
		} else {
			out, bound = append(out, bound[0]), bound[1:]
		}
	}
	return out
}

// lowerBound reports the known gap of a scattered point read on an iceberg
// topology (ROADMAP, "no silent bounds"): a shard that holds fewer than
// minsup, but some, of the cell's tuples suppresses its part, and the merged
// answer is a lower bound of the unsharded cube's. It is decided from the
// relation, by a scan of every shard, not from any answer.
func lowerBound(shards []*ccubing.Dataset, q []int32, minsup int64) bool {
	for _, sds := range shards {
		t := sds.Table()
		var n int64
	tuples:
		for tid := 0; tid < t.NumTuples(); tid++ {
			for d, v := range q {
				if v != ccubing.Star && t.Cols[d][tid] != v {
					continue tuples
				}
			}
			n++
		}
		if n > 0 && n < minsup {
			return true
		}
	}
	return false
}

// feed takes rows into a snapshot topology the way it is done: every shard
// cube is saved again and its worker told to reload it (a router does not fan
// a reload out). It times the whole, and the reloads alone, first POST →
// first correct answer through the router.
func (r *run) feed(t *topology, cubes []*ccubing.Cube, snaps []string, probe, want []byte) (whole, reload float64, err error) {
	t0 := time.Now()
	for i, sc := range cubes {
		if err := saveCube(sc, snaps[i]); err != nil {
			return 0, 0, err
		}
	}
	t1 := time.Now()
	for _, w := range t.workers {
		if _, err := r.reloadTimed(w, probe, nil); err != nil {
			return 0, 0, err
		}
	}
	if err := t.router.waitAnswer(probe, func(body []byte) bool { return bytes.Equal(body, want) }); err != nil {
		return 0, 0, err
	}
	return time.Since(t0).Seconds(), time.Since(t1).Seconds(), nil
}

// runRouted drives two ccserve shard workers behind a ccserve -router.
func runRouted(r *run) error {
	rg := regimeStar
	t0 := time.Now()
	ds, err := relation(rg, r.seed)
	if err != nil {
		return err
	}
	r.set("gen.synthetic_s", time.Since(t0).Seconds())
	cube, err := ccubing.Materialize(ds, rg.options(1)) // the unsharded oracle
	if err != nil {
		return err
	}
	snaps := make([]string, routedShards)
	shards := make([]*ccubing.Dataset, routedShards)
	shardCubes := make([]*ccubing.Cube, routedShards)
	locals := make([]serve.Shard, routedShards)
	var shardRows int
	for i := range snaps {
		if shards[i], err = ds.Shard(0, i, routedShards); err != nil {
			return err
		}
		shardRows += shards[i].NumTuples()
		if shardCubes[i], err = ccubing.Materialize(shards[i], rg.options(1)); err != nil {
			return err
		}
		snaps[i] = filepath.Join(r.dir, fmt.Sprintf("s%d.ccube", i))
		if err := saveCube(shardCubes[i], snaps[i]); err != nil {
			return err
		}
		locals[i] = serve.NewLocal(shardCubes[i])
	}
	r.check(shardRows == rg.T, "shards hold %d tuples, the relation %d", shardRows, rg.T)
	// The same router, in-process over the two shard cubes: no sockets.
	rt, err := serve.NewRouter(locals)
	if err != nil {
		return err
	}
	inRouter := &inproc{cube: cube, h: serve.NewServer(rt, serve.Config{}).Handler()}

	q, err := newQuerySet(r, cube, ds, rg, routedPass*routedOlapPer)
	if err != nil {
		return err
	}
	// Candidates are drawn four times over: about a third of the sampled
	// cells bind dimension 0, and three quarters of the queries must.
	rng := rand.New(rand.NewSource(r.seed ^ 0x726f7574))
	nHot, nCold := hotPoolSize/2, routedPass*routedColdPer
	cand := pointPool(sampleCells(cube, rng, 8*(nHot+nCold)), ds.Cardinalities(), rng, 4*(nHot+nCold))
	q.hotQ = routedPoints(cand[:4*nHot], nHot)
	q.coldQ = routedPoints(cand[4*nHot:], nCold)
	q.hotSeq = zipfSeq(rng, 1.1, len(q.hotQ), 1<<16)
	if q.hot, err = q.p.preparePoints(q.hotQ); err != nil {
		return err
	}
	if q.cold, err = q.p.preparePoints(q.coldQ); err != nil {
		return err
	}
	pl, err := newReadPlan(q, q.p, routedPass, routedHotPer, routedColdPer, routedOlapPer, routedVerifyEvery)
	if err != nil {
		return err
	}
	// Every scattered query stays in the timed mix. Of the sampled ones, only
	// the known per-shard lower bounds are exempt from the comparison with
	// the unsharded cube.
	var sampled, exempt int
	exemptBounds := func(want [][]byte, query func(i int) []int32) {
		for i := range want {
			if q := query(i); want[i] != nil && q[0] == ccubing.Star {
				sampled++
				if lowerBound(shards, q, rg.MinSup) {
					want[i] = nil
					exempt++
				}
			}
		}
	}
	exemptBounds(pl.wantHot, func(i int) []int32 { return q.hotQ[q.hotSeq[i%len(q.hotSeq)]] })
	exemptBounds(pl.wantCold, func(i int) []int32 { return q.coldQ[i%len(q.coldQ)] })
	fmt.Printf("# %d of the %d sampled scattered point reads are per-shard lower bounds (a shard holds a sub-minsup part) and exempt from the comparison\n", exempt, sampled)
	r.checkCells(cube, q, ds, rg, oracleAnchor)
	gcOn := quietGC()
	defer gcOn()
	probe := q.hot[0].raw
	probeWant, err := q.p.answer(probe)
	if err != nil {
		return err
	}
	var boots, reloads, feeds []float64
	boot := func() (*topology, error) {
		t, s, err := bootTopology(r.bin, snaps, probe, probeWant)
		boots = append(boots, s)
		r.attempted++
		return t, err
	}
	topo, err := boot()
	if err != nil {
		return err
	}
	c, err := dial(topo.router.addr)
	if err != nil {
		return err
	}
	defer c.close()
	r.warmHot(c, pl)
	r.ready()

	tracks := r.newReadTracks(c, pl, nil)
	var untraced, rss float64
	if r.trace {
		untraced = r.untracedRate(tracks.cold)
		if err := r.tracedReads(c, topo.router, pl, tracks); err != nil {
			return err
		}
	}
	for p := 0; p < r.passes && !r.trace; p++ {
		if p > 0 {
			topo.kill()
			if topo, err = boot(); err != nil {
				return err
			}
			if err := c.redial(topo.router.addr); err != nil {
				return err
			}
			r.warmHot(c, pl)
		}
		r.rounds(routedPass, tracks.all()...)
		// Memory is read before the feed: a worker that reloads holds two
		// cubes for a moment.
		rss = 0
		for _, p := range topo.procs() {
			m, err := peakRSSMB(p.pid())
			if err != nil {
				return err
			}
			rss += m
		}
		whole, reload, err := r.feed(topo, shardCubes, snaps, probe, probeWant)
		if err != nil {
			return err
		}
		reloads, feeds = append(reloads, reload), append(feeds, whole)
		r.attempted++
	}
	r.publish(tracks)
	fmt.Printf("# boots %s\n# reloads %s\n# save+reload %s\n", compact(boots), compact(reloads), compact(feeds))
	r.set("ready_s", kthSmallest(boots, 1))
	r.set("rebuild_s", kthSmallest(reloads, 1))
	r.set("ingest_rows_per_s", ratio(float64(rg.T), kthSmallest(feeds, 1)))
	r.set("mem_mb", rss)
	r.set("client.ready_median_s", median(boots))

	meta, err := getMeta(c)
	if err != nil {
		return err
	}
	r.check(meta.SourceRows == int64(rg.T), "router reports %d source rows, the relation has %d", meta.SourceRows, rg.T)
	r.set("cube_bytes_per_tuple", float64(meta.SizeBytes)/float64(meta.SourceRows))

	if r.trace {
		r.set("client.trace_overhead_ratio", ratio(untraced, tracks.cold.rate()))
		gcOn()
		r.clientLayers(tracks)
		if err := r.routerLayers(c, pl, inRouter, tracks.cold.phaseStats); err != nil {
			return err
		}
		if err := r.buildLayers(q.p, ds, rg); err != nil {
			return err
		}
		r.readLayers(q, "tcp.cold", "tcp.olap")
		r.set("client.point_cold_qps_c2", r.unpinnedC2(pl, topo.procs()...))
	}
	return nil
}

// routerLayers reads the router's own scatter/merge/worker histograms over
// the whole run, replays the olap sequence through the in-process router (no
// sockets), and measures the same cold sequence against a single node for the
// routing overhead.
func (r *run) routerLayers(c *conn, pl *readPlan, inRouter *inproc, cold phaseStats) error {
	body, err := c.get("/metrics")
	if err != nil {
		return err
	}
	prom := parsePromText(string(body))
	none := promText{}
	r.set("router.scatter_ms", prom.histMeanSince(none, "ccubing_router_scatter_seconds", "")*1e3)
	r.set("router.merge_ms", prom.histMeanSince(none, "ccubing_router_merge_seconds", "")*1e3)
	r.set("router.worker_ms", prom.histMeanSince(none, "ccubing_router_worker_seconds", "")*1e3)
	r.set("router.fanout_per_req", ratio(prom.value("ccubing_router_fanout_total"), prom.value("ccubing_router_scatters_total")))
	r.set("router.cpu_ms_per_req_olap", r.metrics["serve.cpu_ms_per_req_olap"])

	n := min(len(pl.q.olap), layerOlap)
	ro := r.phase("router.inproc_olap", "tcp.olap", 1, n, func(i int) {
		if status, _, err := inRouter.serveRaw(pl.q.olap[i].raw); err != nil || status != 200 {
			r.fail("in-process router: olap #%d: status %d: %v", i, status, err)
		}
	})
	r.set("router.inproc_olap_ms", mean(ro.lat)*1e3)

	// Single node over the unsharded snapshot, same cold sequence.
	single := filepath.Join(r.dir, "single.ccube")
	if err := saveCube(pl.q.p.cube, single); err != nil {
		return err
	}
	srv, _, err := bootTimed(r.bin, pl.q.hot[0].raw, nil, "-snapshot", single)
	if err != nil {
		return err
	}
	defer srv.kill()
	sc, err := dial(srv.addr)
	if err != nil {
		return err
	}
	defer sc.close()
	r.warm(sc, pl)
	one := r.phase("single.cold", "", 3, pl.coldPer, r.httpOp(sc, "single point-cold", pl.coldReq, at(pl.wantCold)))
	r.set("router.overhead_point_us", (mean(cold.lat)-mean(one.lat))*1e6)
	return nil
}
