package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccubing"
	"ccubing/internal/obs"
	"ccubing/internal/route"
)

// Router is a Shard that scatter-gathers over shard workers. The topology
// invariant (paper Sec. 6.3): tuples are partitioned by their leading-
// dimension component — worker i holds exactly the tuples whose dimension-0
// component hashes to i (route.Owner) — so every closed cell that fixes
// dimension 0 lives whole on one worker, with its global count and closure.
// Work that binds dimension 0 routes to that one worker and is byte-identical
// to a single store at any iceberg threshold; work that leaves it wildcard
// scatters to all workers and merges. Scattered aggregates are exact at any
// threshold when every worker's store carries its residual summary of
// iceberg-pruned mass (each reports exact=true): per-shard answers then
// include the below-threshold tuples the shard owns, and sums of exact shard
// answers are the exact global answer.
type Router struct {
	shards []Shard
	// Topology-constant metadata, validated identical across workers at
	// construction: routing and merging decisions read these instead of
	// re-fetching worker metas per request.
	dims    int
	names   []string
	labeled bool
	measure bool
	kind    string // measure kind name: "none", "sum", "min", "max", "avg"

	// reg holds the scatter-gather metrics below; the Server's /metrics
	// merges it into the router's scrape.
	reg *obs.Registry
	met routerMetrics
}

// routerMetrics is the router's view of its topology: how often it scatters
// versus routes whole, how long each worker takes from the router's side of
// the wire, and what the gather-side merge costs.
type routerMetrics struct {
	scatterSeconds *obs.Histogram // full fan-out wait; the slowest worker gates it
	mergeSeconds   *obs.Histogram // router-side merge over gathered answers
	scatters       *obs.Counter   // calls fanned out to every worker
	fanout         *obs.Counter   // worker calls issued by scatters
	routed         *obs.Counter   // calls routed whole to one owning worker
	partialRows    *obs.Counter   // aggregate partial rows gathered from workers
	partialBytes   *obs.Counter   // aggregate partial frame bytes gathered from workers
	pushdown       *obs.Counter   // aggregate scatters whose top_k cut ran at the workers
	workerSeconds  []*obs.Histogram
	workerErrors   []*obs.Counter
	// workerCalls counts worker calls by originating endpoint, pre-created so
	// the request path never takes the registry lock.
	workerCalls map[string]*obs.Counter
	stageNames  []string // "worker0", "worker1", ... trace stage labels
}

// NewRouter builds a router over the given workers (typically Dial'd shard
// workers, in shard order: worker i must serve shard i of the topology). It
// fetches every worker's metadata and refuses mismatched topologies —
// different dimensions, iceberg thresholds or measure configurations cannot
// merge into one coherent cube.
func NewRouter(shards []Shard) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("router needs at least one shard")
	}
	metas := make([]cubeResponse, len(shards))
	for i, sh := range shards {
		m, err := sh.Meta()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		metas[i] = m
	}
	m0 := metas[0]
	for i, m := range metas[1:] {
		switch {
		case m.Dims != m0.Dims || strings.Join(m.Names, ",") != strings.Join(m0.Names, ","):
			return nil, fmt.Errorf("shard %d dimensions %v differ from shard 0's %v", i+1, m.Names, m0.Names)
		case m.MinSup != m0.MinSup:
			return nil, fmt.Errorf("shard %d minsup %d differs from shard 0's %d", i+1, m.MinSup, m0.MinSup)
		case m.Labeled != m0.Labeled:
			return nil, fmt.Errorf("shard %d labeled=%v differs from shard 0's %v", i+1, m.Labeled, m0.Labeled)
		case m.Measure != m0.Measure || m.MeasureKind != m0.MeasureKind:
			return nil, fmt.Errorf("shard %d measure %q differs from shard 0's %q", i+1, m.MeasureKind, m0.MeasureKind)
		}
	}
	rt := &Router{
		shards:  shards,
		dims:    m0.Dims,
		names:   m0.Names,
		labeled: m0.Labeled,
		measure: m0.Measure,
		kind:    m0.MeasureKind,
		reg:     obs.NewRegistry(),
	}
	rt.reg.GaugeFunc("ccubing_router_workers", "Workers in the routing topology.",
		func() float64 { return float64(len(rt.shards)) })
	rt.met.scatterSeconds = rt.reg.Histogram("ccubing_router_scatter_seconds",
		"Full fan-out latency of scattered calls (the slowest worker gates it).")
	rt.met.mergeSeconds = rt.reg.Histogram("ccubing_router_merge_seconds",
		"Router-side merge time over gathered worker answers.")
	rt.met.scatters = rt.reg.Counter("ccubing_router_scatters_total",
		"Calls fanned out to every worker.")
	rt.met.fanout = rt.reg.Counter("ccubing_router_fanout_total",
		"Worker calls issued by scatters; divided by scatters_total this is the fan-out width.")
	rt.met.routed = rt.reg.Counter("ccubing_router_routed_total",
		"Calls routed whole to the one worker owning the bound routing component.")
	rt.met.partialRows = rt.reg.Counter("ccubing_router_partial_rows_total",
		"Aggregate partial rows gathered from workers.")
	rt.met.partialBytes = rt.reg.Counter("ccubing_router_partial_bytes_total",
		"Aggregate partial frame bytes gathered from workers over the wire.")
	rt.met.pushdown = rt.reg.Counter("ccubing_router_pushdown_total",
		"Aggregate scatters that group by the routing dimension, so each worker cut to top_k itself.")
	for i := range shards {
		w := strconv.Itoa(i)
		rt.met.workerSeconds = append(rt.met.workerSeconds, rt.reg.Histogram(
			"ccubing_router_worker_seconds", "Per-worker call latency as seen by the router.", "worker", w))
		rt.met.workerErrors = append(rt.met.workerErrors, rt.reg.Counter(
			"ccubing_router_worker_errors_total", "Per-worker call failures as seen by the router.", "worker", w))
		rt.met.stageNames = append(rt.met.stageNames, "worker"+w)
	}
	rt.met.workerCalls = make(map[string]*obs.Counter)
	for _, op := range []string{"query", "slice", "aggregate", "mutate", "refresh", "meta", "stats"} {
		rt.met.workerCalls[op] = rt.reg.Counter("ccubing_router_worker_calls_total",
			"Worker calls issued by this router, by originating endpoint.", "endpoint", op)
	}
	return rt, nil
}

// MetricsRegistry exposes the scatter-gather registry to the Server's
// /metrics.
func (rt *Router) MetricsRegistry() *obs.Registry { return rt.reg }

// Health reports the router role without fanning out — the answer must stay
// load-balancer cheap even with a dead worker. Per-worker generations come
// from the workers' own /v1/health or this router's /v1/stats.
func (rt *Router) Health() healthResponse {
	return healthResponse{Role: "router", Workers: len(rt.shards)}
}

// workerName identifies worker i in stats entries: its base URL when Dial'd,
// a positional #i otherwise (in-process shards in tests).
func (rt *Router) workerName(i int) string {
	if a, ok := rt.shards[i].(addresser); ok {
		return a.Addr()
	}
	return "#" + strconv.Itoa(i)
}

// observeWorker records one worker call: its latency into the per-worker
// histogram and the request trace, and any failure into the error counter.
func (rt *Router) observeWorker(i int, tr *obs.Trace, start time.Time, err error) {
	d := time.Since(start)
	rt.met.workerSeconds[i].Observe(d)
	tr.Observe(rt.met.stageNames[i], d)
	if err != nil {
		rt.met.workerErrors[i].Inc()
	}
}

// observeMerge records the gather-side merge once a scattered call's answers
// are combined.
func (rt *Router) observeMerge(tr *obs.Trace, start time.Time) {
	d := time.Since(start)
	rt.met.mergeSeconds.Observe(d)
	tr.Observe("merge", d)
}

// scatterCall fans one call out to every shard concurrently and collects the
// results in shard order, recording per-worker and whole-scatter latency
// under op's worker-call counter (tr may be nil for untraced internal
// scatters). Errors are deterministic: the lowest-index failing shard's
// error wins, regardless of completion order.
func scatterCall[T any](rt *Router, op string, tr *obs.Trace, call func(Shard) (T, error)) ([]T, error) {
	shards := rt.shards
	out := make([]T, len(shards))
	errs := make([]error, len(shards))
	start := time.Now()
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := time.Now()
			out[i], errs[i] = call(sh)
			rt.observeWorker(i, tr, ws, errs[i])
		}()
	}
	wg.Wait()
	d := time.Since(start)
	rt.met.scatters.Inc()
	rt.met.fanout.Add(int64(len(shards)))
	rt.met.scatterSeconds.Observe(d)
	tr.Observe("scatter", d)
	rt.met.workerCalls[op].Add(int64(len(shards)))
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// routedCall runs one call against the single owning worker, with the same
// accounting as a scatter's per-worker leg.
func routedCall[T any](rt *Router, op string, tr *obs.Trace, owner int, call func(Shard) (T, error)) (T, error) {
	start := time.Now()
	out, err := call(rt.shards[owner])
	rt.observeWorker(owner, tr, start, err)
	rt.met.routed.Inc()
	rt.met.workerCalls[op].Add(1)
	return out, err
}

// ownerIndex returns the worker index owning a dimension-0 component.
func (rt *Router) ownerIndex(component string) int {
	return route.Owner(component, len(rt.shards))
}

// routeQuery decides where a query/slice request goes: the dimension-0
// component's owner when the request binds it, everywhere when it is
// wildcard. Coded components are normalized to canonical decimal strings so
// "07" and "7" hash alike (and like mutation routing, which renders stored
// values with strconv).
func (rt *Router) routeQuery(req queryRequest) (comp string, scatter bool, err error) {
	if (req.Cell == nil) == (req.Values == nil) {
		return "", false, fmt.Errorf(`exactly one of "cell" and "values" is required`)
	}
	if req.Limit < 0 {
		return "", false, fmt.Errorf("bad limit %d", req.Limit)
	}
	if req.Values != nil {
		if rt.labeled {
			return "", false, fmt.Errorf("coded-values queries cannot be routed: dictionary codes are shard-local; query by labels")
		}
		if len(req.Values) != rt.dims {
			return "", false, fmt.Errorf("cell has %d values, want %d", len(req.Values), rt.dims)
		}
		v := req.Values[0]
		if v == ccubing.Star {
			return "", true, nil
		}
		if v < 0 {
			return "", false, fmt.Errorf("bad value %d for dimension %s (codes are non-negative; %d = wildcard)",
				v, rt.names[0], ccubing.Star)
		}
		return strconv.Itoa(int(v)), false, nil
	}
	if len(req.Cell) != rt.dims {
		return "", false, fmt.Errorf("cell has %d components, want %d", len(req.Cell), rt.dims)
	}
	c0 := req.Cell[0]
	if c0 == "*" {
		return "", true, nil
	}
	if rt.labeled {
		return c0, false, nil
	}
	v, err := strconv.ParseInt(c0, 10, 32)
	if err != nil || v < 0 {
		return "", false, fmt.Errorf("bad value %q for dimension %s", c0, rt.names[0])
	}
	return strconv.FormatInt(v, 10), false, nil
}

func (rt *Router) Meta() (cubeResponse, error) {
	metas, err := scatterCall(rt, "meta", nil, func(sh Shard) (cubeResponse, error) {
		return sh.Meta()
	})
	if err != nil {
		return cubeResponse{}, err
	}
	resp := cubeResponse{
		Dims:        rt.dims,
		Names:       rt.names,
		MinSup:      metas[0].MinSup,
		Labeled:     rt.labeled,
		Measure:     rt.measure,
		MeasureKind: rt.kind,
		Cuboids:     metas[0].Cuboids,
		Live:        true,
		Shards:      len(rt.shards),
	}
	for i, m := range metas {
		resp.Cells += m.Cells
		resp.SizeByte += m.SizeByte
		resp.SourceRows += m.SourceRows
		resp.Live = resp.Live && m.Live
		if m.Cuboids > resp.Cuboids {
			resp.Cuboids = m.Cuboids
		}
		if i == 0 || m.Generation < resp.Generation {
			resp.Generation = m.Generation
		}
	}
	return resp, nil
}

// Stats gathers every worker's stats without failing wholesale: an
// unreachable worker keeps its slot in Shards with Reachable=false and the
// transport error, so a dead worker is distinguishable from one that simply
// saw no traffic (whose counters are zero but Reachable is true). The merged
// totals cover exactly the reachable workers; any dead worker marks the
// topology not Live.
func (rt *Router) Stats() (statsResponse, error) {
	stats := make([]statsResponse, len(rt.shards))
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := time.Now()
			stats[i], errs[i] = sh.Stats()
			rt.observeWorker(i, nil, ws, errs[i])
		}()
	}
	wg.Wait()
	rt.met.workerCalls["stats"].Add(int64(len(rt.shards)))
	resp := statsResponse{Live: true}
	merged := 0
	for i := range stats {
		reachable := errs[i] == nil
		if !reachable {
			resp.Live = false
			resp.Shards = append(resp.Shards, statsResponse{
				Worker:    rt.workerName(i),
				Reachable: &reachable,
				Error:     errs[i].Error(),
			})
			continue
		}
		st := stats[i]
		st.Worker = rt.workerName(i)
		st.Reachable = &reachable
		resp.Shards = append(resp.Shards, st)
		resp.SourceRows += st.SourceRows
		resp.Backlog += st.Backlog
		resp.Cells += st.Cells
		resp.Live = resp.Live && st.Live
		resp.Refreshes += st.Refreshes
		resp.CacheHits += st.CacheHits
		resp.CacheMisses += st.CacheMisses
		if st.LastRefreshMs > resp.LastRefreshMs {
			resp.LastRefreshMs = st.LastRefreshMs
		}
		if st.LastRefreshError != "" && resp.LastRefreshError == "" {
			resp.LastRefreshError = st.LastRefreshError
		}
		if merged == 0 || st.Generation < resp.Generation {
			resp.Generation = st.Generation
		}
		merged++
	}
	return resp, nil
}
