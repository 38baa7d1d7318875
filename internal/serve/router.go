package serve

import (
	"fmt"
	"io"
	"net/http"
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
	for i := range shards {
		w := strconv.Itoa(i)
		rt.met.workerSeconds = append(rt.met.workerSeconds, rt.reg.Histogram(
			"ccubing_router_worker_seconds", "Per-worker call latency as seen by the router.", "worker", w))
		rt.met.workerErrors = append(rt.met.workerErrors, rt.reg.Counter(
			"ccubing_router_worker_errors_total", "Per-worker call failures as seen by the router.", "worker", w))
		rt.met.stageNames = append(rt.met.stageNames, "worker"+w)
	}
	rt.met.workerCalls = make(map[string]*obs.Counter)
	for _, op := range []string{"query", "slice", "aggregate", "append", "delete", "update", "refresh", "meta", "stats"} {
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

// avgKind reports an avg-measure topology. Presented means do not combine
// across shards, so avg merges go through the wire rows' AuxRaw stored sums;
// errNoAuxRaw is the answer when a worker's avg row arrives without one.
func (rt *Router) avgKind() bool {
	return rt.kind == ccubing.MeasureAvg.String()
}

// errNoAuxRaw reports a malformed worker answer: an avg row that cannot be
// merged because it lacks the stored sum every avg answer carries.
func errNoAuxRaw() *StatusError {
	return statusErrorf(http.StatusBadGateway, "shard answered an avg query without aux_raw")
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

func (rt *Router) Query(req queryRequest) (queryResponse, error) {
	comp, scatter, err := rt.routeQuery(req)
	if err != nil {
		return queryResponse{}, err
	}
	if !scatter {
		return routedCall(rt, "query", req.trace, rt.ownerIndex(comp), func(sh Shard) (queryResponse, error) {
			return sh.Query(req)
		})
	}
	resps, err := scatterCall(rt, "query", req.trace, func(sh Shard) (queryResponse, error) {
		return sh.Query(req)
	})
	if err != nil {
		return queryResponse{}, err
	}
	mstart := time.Now()
	defer rt.observeMerge(req.trace, mstart)
	var found []queryResponse
	for _, r := range resps {
		if r.Found {
			found = append(found, r)
		}
	}
	if len(found) == 0 {
		return queryResponse{Found: false}, nil
	}
	if len(found) == 1 {
		// One shard holds every matching tuple: its answer IS the global one
		// (count, closure and measure alike, whatever the measure kind).
		return found[0], nil
	}
	merged := queryResponse{Found: true}
	for _, r := range found {
		merged.Count += r.Count
	}
	// The closure is the component-wise meet: a dimension stays fixed only if
	// every shard's matching tuples agree on the same label — exactly the
	// global all-tuples-agree condition, since the shards partition them.
	closure := append([]string(nil), found[0].Closure...)
	for _, r := range found[1:] {
		for d := range closure {
			if d >= len(r.Closure) || closure[d] != r.Closure[d] {
				closure[d] = "*"
			}
		}
	}
	merged.Closure = closure
	if rt.measure {
		aux := 0.0
		for i, r := range found {
			v := 0.0
			switch {
			case rt.avgKind():
				// Merge the stored sums, not the presented means.
				if r.AuxRaw == nil {
					return queryResponse{}, errNoAuxRaw()
				}
				v = *r.AuxRaw
			case r.Aux != nil:
				v = *r.Aux
			}
			switch {
			case i == 0:
				aux = v
			case rt.kind == ccubing.MeasureMin.String():
				aux = min(aux, v)
			case rt.kind == ccubing.MeasureMax.String():
				aux = max(aux, v)
			default: // sum and avg (the cube's stored measure is a per-cell sum)
				aux += v
			}
		}
		if rt.avgKind() {
			// The same stored/count division a single worker performs, so the
			// merged mean is byte-identical to an unsharded store's.
			mean := aux / float64(merged.Count)
			merged.Aux = &mean
			merged.AuxRaw = &aux
		} else {
			merged.Aux = &aux
		}
	}
	return merged, nil
}

func (rt *Router) Slice(req queryRequest) (sliceResponse, error) {
	comp, scatter, err := rt.routeQuery(req)
	if err != nil {
		return sliceResponse{}, err
	}
	if scatter {
		// A wildcard-dimension-0 slice enumerates closed cells that do not fix
		// the routing dimension — cells whose closure depends on tuples from
		// every shard, so the per-shard closed-cell sets do not union into the
		// global one. /v1/aggregate answers those questions mergeably.
		return sliceResponse{}, fmt.Errorf(
			"slice must bind the routing dimension %s (its first component cannot be \"*\" through a router); use /v1/aggregate for cross-shard rollups", rt.names[0])
	}
	return routedCall(rt, "slice", req.trace, rt.ownerIndex(comp), func(sh Shard) (sliceResponse, error) {
		return sh.Slice(req)
	})
}

func (rt *Router) Aggregate(req aggregateRequest) (aggregateResponse, error) {
	if req.TopK < 0 {
		return aggregateResponse{}, fmt.Errorf("bad top_k %d", req.TopK)
	}
	by, err := ccubing.ParseOrderBy(req.OrderBy)
	if err != nil {
		return aggregateResponse{}, err
	}
	if _, err := ccubing.ParseAuxAgg(req.AuxAgg); err != nil {
		return aggregateResponse{}, err
	}
	// An exact-value predicate on dimension 0 pins the whole selection to one
	// shard; anything else (wildcard, set, range) can span them.
	if len(req.Where) > 0 {
		if c0 := req.Where[0]; c0 != "*" && c0 != "" && !strings.Contains(c0, "|") && !strings.Contains(c0, "..") {
			comp := c0
			if !rt.labeled {
				v, err := strconv.ParseInt(c0, 10, 32)
				if err != nil || v < 0 {
					return aggregateResponse{}, fmt.Errorf("bad value %q for dimension %s", c0, rt.names[0])
				}
				comp = strconv.FormatInt(v, 10)
			}
			return routedCall(rt, "aggregate", req.trace, rt.ownerIndex(comp), func(sh Shard) (aggregateResponse, error) {
				return sh.Aggregate(req)
			})
		}
	}
	// Scatter with top-k stripped: a shard's local top k can miss rows whose
	// global rank only emerges after cross-shard summation. Rank and truncate
	// here, after the merge.
	fwd := req
	fwd.TopK = 0
	resps, err := scatterCall(rt, "aggregate", req.trace, func(sh Shard) (aggregateResponse, error) {
		return sh.Aggregate(fwd)
	})
	if err != nil {
		return aggregateResponse{}, err
	}
	mstart := time.Now()
	defer rt.observeMerge(req.trace, mstart)
	// Merge rows keyed by their label tuple. Shards partition the tuples, so
	// counts sum; the measure combines per the requested aggregator (a
	// shard-level sum of sums is the global sum, min of mins the global min).
	// Avg rows combine through their AuxRaw stored sums and are presented —
	// divided by the merged count — once, after every shard is folded in.
	auxAgg, _ := ccubing.ParseAuxAgg(req.AuxAgg)
	avgAgg := auxAgg == ccubing.MeasureAvg || (auxAgg == ccubing.MeasureNone && rt.avgKind())
	merged := make(map[string]*aggregateRow)
	var order []string
	exact := true
	for _, r := range resps {
		exact = exact && r.Exact
		for _, row := range r.Rows {
			if avgAgg && row.Aux != nil && row.AuxRaw == nil {
				return aggregateResponse{}, errNoAuxRaw()
			}
			key := strings.Join(row.Cell, "\x00")
			m, ok := merged[key]
			if !ok {
				cp := row
				cp.Cell = append([]string(nil), row.Cell...)
				if row.Aux != nil {
					aux := *row.Aux
					cp.Aux = &aux
				}
				if row.AuxRaw != nil {
					raw := *row.AuxRaw
					cp.AuxRaw = &raw
				}
				merged[key] = &cp
				order = append(order, key)
				continue
			}
			m.Count += row.Count
			switch {
			case m.AuxRaw != nil && row.AuxRaw != nil:
				*m.AuxRaw += *row.AuxRaw // avg: stored sums add
			case m.Aux != nil && row.Aux != nil:
				switch auxAgg {
				case ccubing.MeasureMin:
					if *row.Aux < *m.Aux {
						*m.Aux = *row.Aux
					}
				case ccubing.MeasureMax:
					if *row.Aux > *m.Aux {
						*m.Aux = *row.Aux
					}
				default: // MeasureSum (and the MeasureNone default)
					*m.Aux += *row.Aux
				}
			}
		}
	}
	resp := aggregateResponse{Rows: make([]aggregateRow, 0, len(merged)), Exact: exact}
	for _, key := range order {
		m := merged[key]
		if m.AuxRaw != nil {
			// The same stored/count division a single worker performs, so
			// merged rows are byte-identical to an unsharded store's.
			mean := *m.AuxRaw / float64(m.Count)
			m.Aux = &mean
		}
		resp.Rows = append(resp.Rows, *m)
	}
	sortAggRows(resp.Rows, by == ccubing.ByAux)
	if req.TopK > 0 && len(resp.Rows) > req.TopK {
		resp.Rows = resp.Rows[:req.TopK]
	}
	return resp, nil
}

// mutationBatch is the per-shard split of one routed mutation request.
type mutationBatch struct {
	rows   [][]string
	values [][]int32
	aux    []float64
}

// splitRows partitions a mutation batch by each row's dimension-0 owner.
// aux may be nil (measureless cubes); rows and values are the two request
// forms, exactly one non-nil.
func (rt *Router) splitRows(rows [][]string, values [][]int32, aux []float64) (map[int]*mutationBatch, error) {
	if (rows == nil) == (values == nil) {
		return nil, fmt.Errorf(`exactly one of "rows" and "values" is required`)
	}
	n := len(rows) + len(values) // one of the two is empty
	if aux != nil && len(aux) != n {
		return nil, fmt.Errorf("aux has %d values, want %d", len(aux), n)
	}
	out := make(map[int]*mutationBatch)
	add := func(owner int) *mutationBatch {
		b := out[owner]
		if b == nil {
			b = &mutationBatch{}
			out[owner] = b
		}
		return b
	}
	if rows != nil {
		if !rt.labeled {
			return nil, fmt.Errorf("cube has no dictionaries; send coded values")
		}
		for i, row := range rows {
			if len(row) != rt.dims {
				return nil, fmt.Errorf("row %d has %d components, want %d", i, len(row), rt.dims)
			}
			b := add(route.Owner(row[0], len(rt.shards)))
			b.rows = append(b.rows, row)
			if aux != nil {
				b.aux = append(b.aux, aux[i])
			}
		}
		return out, nil
	}
	if rt.labeled {
		return nil, fmt.Errorf("coded-values mutations cannot be routed: dictionary codes are shard-local; send labeled rows")
	}
	for i, row := range values {
		if len(row) != rt.dims {
			return nil, fmt.Errorf("row %d has %d values, want %d", i, len(row), rt.dims)
		}
		if row[0] < 0 {
			return nil, fmt.Errorf("row %d has negative value %d on routing dimension %s", i, row[0], rt.names[0])
		}
		b := add(route.Owner(strconv.Itoa(int(row[0])), len(rt.shards)))
		b.values = append(b.values, row)
		if aux != nil {
			b.aux = append(b.aux, aux[i])
		}
	}
	return out, nil
}

// shardsOf lists the batch owners in shard order, for deterministic
// iteration over a split.
func shardsOf(batches map[int]*mutationBatch, n int) []int {
	var idx []int
	for i := 0; i < n; i++ {
		if batches[i] != nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// partialMutation reports a scatter where some shard batches applied and
// others failed: the applied rows are buffered on their shards, so resending
// the whole batch would double-apply them.
func partialMutation(applied, total int, err error) error {
	return statusErrorf(http.StatusInternalServerError,
		"partial mutation: %d of %d shard batches applied and remain buffered on their shards — do not resend the whole batch: %v",
		applied, total, err)
}

// runMutation executes one call per owned batch concurrently, with the
// all-failed/partial-failure error contract above. ok holds the successful
// responses in shard order.
func runMutation[T any](rt *Router, op string, tr *obs.Trace, owners []int, call func(owner int) (T, error)) (ok []T, err error) {
	resps := make([]T, len(owners))
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, owner := range owners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := time.Now()
			resps[i], errs[i] = call(owner)
			rt.observeWorker(owner, tr, ws, errs[i])
		}()
	}
	wg.Wait()
	rt.met.workerCalls[op].Add(int64(len(owners)))
	var firstErr error
	applied := 0
	for i := range owners {
		if errs[i] == nil {
			ok = append(ok, resps[i])
			applied++
		} else if firstErr == nil {
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		if applied > 0 {
			return nil, partialMutation(applied, len(owners), firstErr)
		}
		return nil, firstErr
	}
	return ok, nil
}

// broadcastRefresh folds every worker's delta in, for mutation requests
// carrying "refresh": true: one logical refresh of the whole relation, so
// even workers that received no rows this call publish a new generation.
func (rt *Router) broadcastRefresh(tr *obs.Trace) ([]refreshResponse, error) {
	return scatterCall(rt, "refresh", tr, func(sh Shard) (refreshResponse, error) {
		return sh.Refresh()
	})
}

// mutationAck is the tail every mutation response shares: the backlog left
// buffered, the generation being served, and whether the call refreshed.
type mutationAck struct {
	backlog    int
	generation uint64
	refreshed  bool
}

// finishMutation folds the per-shard acks of one routed mutation into the
// response tail — total backlog, whether any shard refreshed, the oldest
// generation any of them serves — and, for a request carrying
// "refresh": true, broadcasts the refresh and reports the oldest generation
// it published. what names the buffered edits in the error that tells the
// client not to resend them.
func (rt *Router) finishMutation(acks []mutationAck, refresh bool, tr *obs.Trace, what string) (mutationAck, error) {
	var out mutationAck
	for i, a := range acks {
		out.backlog += a.backlog
		out.refreshed = out.refreshed || a.refreshed
		if i == 0 || a.generation < out.generation {
			out.generation = a.generation
		}
	}
	if refresh {
		rr, err := rt.broadcastRefresh(tr)
		if err != nil {
			return mutationAck{}, statusErrorf(http.StatusInternalServerError,
				"%s buffered but the triggered refresh failed on a shard (do not resend the batch): %v", what, err)
		}
		out.backlog = 0
		out.refreshed = true
		for i, r := range rr {
			if i == 0 || r.Generation < out.generation {
				out.generation = r.Generation
			}
		}
	}
	return out, nil
}

func (rt *Router) Append(req appendRequest) (appendResponse, error) {
	batches, err := rt.splitRows(req.Rows, req.Values, req.Aux)
	if err != nil {
		return appendResponse{}, err
	}
	owners := shardsOf(batches, len(rt.shards))
	oks, err := runMutation(rt, "append", req.trace, owners, func(owner int) (appendResponse, error) {
		b := batches[owner]
		return rt.shards[owner].Append(appendRequest{Rows: b.rows, Values: b.values, Aux: b.aux})
	})
	if err != nil {
		return appendResponse{}, err
	}
	appended := 0
	acks := make([]mutationAck, len(oks))
	for i, r := range oks {
		appended += r.Appended
		acks[i] = mutationAck{r.Backlog, r.Generation, r.Refreshed}
	}
	ack, err := rt.finishMutation(acks, req.Refresh, req.trace, "rows")
	if err != nil {
		return appendResponse{}, err
	}
	return appendResponse{Appended: appended, Backlog: ack.backlog, Generation: ack.generation, Refreshed: ack.refreshed}, nil
}

func (rt *Router) Delete(req appendRequest) (deleteResponse, error) {
	batches, err := rt.splitRows(req.Rows, req.Values, req.Aux)
	if err != nil {
		return deleteResponse{}, err
	}
	owners := shardsOf(batches, len(rt.shards))
	oks, err := runMutation(rt, "delete", req.trace, owners, func(owner int) (deleteResponse, error) {
		b := batches[owner]
		return rt.shards[owner].Delete(appendRequest{Rows: b.rows, Values: b.values, Aux: b.aux})
	})
	if err != nil {
		return deleteResponse{}, err
	}
	deleted := 0
	acks := make([]mutationAck, len(oks))
	for i, r := range oks {
		deleted += r.Deleted
		acks[i] = mutationAck{r.Backlog, r.Generation, r.Refreshed}
	}
	ack, err := rt.finishMutation(acks, req.Refresh, req.trace, "tombstones")
	if err != nil {
		return deleteResponse{}, err
	}
	return deleteResponse{Deleted: deleted, Backlog: ack.backlog, Generation: ack.generation, Refreshed: ack.refreshed}, nil
}

// shardUpdate is one worker's share of a routed update: same-shard pairs
// stay atomic update pairs; a pair whose old and new tuples hash apart is
// split into a tombstone on the old owner and an append on the new one —
// applied atomically within each worker's delta, but not across the two
// (a refresh racing between them can briefly serve neither tuple or both).
type shardUpdate struct {
	oldRows, newRows     [][]string
	oldValues, newValues [][]int32
	oldAux, newAux       []float64
	del, app             mutationBatch
}

func (rt *Router) Update(req updateRequest) (updateResponse, error) {
	labeled := req.OldRows != nil || req.NewRows != nil
	coded := req.OldValues != nil || req.NewValues != nil
	if labeled == coded {
		return updateResponse{}, fmt.Errorf(`exactly one of "old_rows"/"new_rows" and "old_values"/"new_values" is required`)
	}
	if labeled && !rt.labeled {
		return updateResponse{}, fmt.Errorf("cube has no dictionaries; send coded values")
	}
	if coded && rt.labeled {
		return updateResponse{}, fmt.Errorf("coded-values mutations cannot be routed: dictionary codes are shard-local; send labeled rows")
	}
	nPairs := len(req.OldRows) + len(req.OldValues)
	if len(req.NewRows)+len(req.NewValues) != nPairs {
		return updateResponse{}, fmt.Errorf("update wants matching old/new batches (%d old, %d new)",
			nPairs, len(req.NewRows)+len(req.NewValues))
	}
	if req.OldAux != nil && len(req.OldAux) != nPairs {
		return updateResponse{}, fmt.Errorf("old_aux has %d values, want %d", len(req.OldAux), nPairs)
	}
	if req.NewAux != nil && len(req.NewAux) != nPairs {
		return updateResponse{}, fmt.Errorf("new_aux has %d values, want %d", len(req.NewAux), nPairs)
	}

	// Component of a pair side, for routing.
	comp := func(row []string, vals []int32, i int) (string, error) {
		if labeled {
			if len(row) != rt.dims {
				return "", fmt.Errorf("row %d has %d components, want %d", i, len(row), rt.dims)
			}
			return row[0], nil
		}
		if len(vals) != rt.dims {
			return "", fmt.Errorf("row %d has %d values, want %d", i, len(vals), rt.dims)
		}
		if vals[0] < 0 {
			return "", fmt.Errorf("row %d has negative value %d on routing dimension %s", i, vals[0], rt.names[0])
		}
		return strconv.Itoa(int(vals[0])), nil
	}
	side := func(rows [][]string, vals [][]int32, i int) ([]string, []int32) {
		if labeled {
			return rows[i], nil
		}
		return nil, vals[i]
	}

	shards := make(map[int]*shardUpdate)
	at := func(owner int) *shardUpdate {
		u := shards[owner]
		if u == nil {
			u = &shardUpdate{}
			shards[owner] = u
		}
		return u
	}
	splitPairs := 0
	for i := 0; i < nPairs; i++ {
		oldRow, oldVals := side(req.OldRows, req.OldValues, i)
		newRow, newVals := side(req.NewRows, req.NewValues, i)
		oc, err := comp(oldRow, oldVals, i)
		if err != nil {
			return updateResponse{}, fmt.Errorf("old %w", err)
		}
		nc, err := comp(newRow, newVals, i)
		if err != nil {
			return updateResponse{}, fmt.Errorf("new %w", err)
		}
		oOwn, nOwn := route.Owner(oc, len(rt.shards)), route.Owner(nc, len(rt.shards))
		if oOwn == nOwn {
			u := at(oOwn)
			if labeled {
				u.oldRows = append(u.oldRows, oldRow)
				u.newRows = append(u.newRows, newRow)
			} else {
				u.oldValues = append(u.oldValues, oldVals)
				u.newValues = append(u.newValues, newVals)
			}
			if req.OldAux != nil {
				u.oldAux = append(u.oldAux, req.OldAux[i])
			}
			if req.NewAux != nil {
				u.newAux = append(u.newAux, req.NewAux[i])
			}
			continue
		}
		splitPairs++
		del, app := &at(oOwn).del, &at(nOwn).app
		if labeled {
			del.rows = append(del.rows, oldRow)
			app.rows = append(app.rows, newRow)
		} else {
			del.values = append(del.values, oldVals)
			app.values = append(app.values, newVals)
		}
		if req.OldAux != nil {
			del.aux = append(del.aux, req.OldAux[i])
		}
		if req.NewAux != nil {
			app.aux = append(app.aux, req.NewAux[i])
		}
	}

	owners := make([]int, 0, len(shards))
	for i := 0; i < len(rt.shards); i++ {
		if shards[i] != nil {
			owners = append(owners, i)
		}
	}
	type shardResult struct {
		mutationAck
		updated int
	}
	oks, err := runMutation(rt, "update", req.trace, owners, func(owner int) (shardResult, error) {
		u := shards[owner]
		sh := rt.shards[owner]
		var res shardResult
		if u.oldRows != nil || u.oldValues != nil {
			r, err := sh.Update(updateRequest{
				OldRows: u.oldRows, NewRows: u.newRows,
				OldValues: u.oldValues, NewValues: u.newValues,
				OldAux: u.oldAux, NewAux: u.newAux,
			})
			if err != nil {
				return res, err
			}
			res = shardResult{mutationAck{r.Backlog, r.Generation, r.Refreshed}, r.Updated}
		}
		if u.del.rows != nil || u.del.values != nil {
			r, err := sh.Delete(appendRequest{Rows: u.del.rows, Values: u.del.values, Aux: u.del.aux})
			if err != nil {
				return res, err
			}
			res.backlog, res.generation = r.Backlog, r.Generation
			res.refreshed = res.refreshed || r.Refreshed
		}
		if u.app.rows != nil || u.app.values != nil {
			r, err := sh.Append(appendRequest{Rows: u.app.rows, Values: u.app.values, Aux: u.app.aux})
			if err != nil {
				return res, err
			}
			res.backlog, res.generation = r.Backlog, r.Generation
			res.refreshed = res.refreshed || r.Refreshed
		}
		return res, nil
	})
	if err != nil {
		return updateResponse{}, err
	}
	updated := splitPairs
	acks := make([]mutationAck, len(oks))
	for i, r := range oks {
		updated += r.updated
		acks[i] = r.mutationAck
	}
	ack, err := rt.finishMutation(acks, req.Refresh, req.trace, "updates")
	if err != nil {
		return updateResponse{}, err
	}
	return updateResponse{Updated: updated, Backlog: ack.backlog, Generation: ack.generation, Refreshed: ack.refreshed}, nil
}

// parseStream reads a whole NDJSON mutation stream into a batch request.
// Routing needs every line parsed before anything is forwarded, so — unlike
// a single server, which buffers rows as it streams and keeps the prefix on
// a malformed line — a router rejects the entire stream if any line is bad.
func (rt *Router) parseStream(r io.Reader) (appendRequest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return appendRequest{}, err
	}
	var req appendRequest
	lineNo := 0
	for _, line := range strings.Split(string(data), "\n") {
		lineNo++
		if strings.TrimSpace(line) == "" {
			continue
		}
		labels, values, aux, err := ccubing.ParseNDJSONRow([]byte(line), rt.labeled)
		if err != nil {
			return appendRequest{}, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if rt.labeled {
			req.Rows = append(req.Rows, labels)
		} else {
			req.Values = append(req.Values, values)
		}
		if rt.measure {
			req.Aux = append(req.Aux, aux)
		}
	}
	return req, nil
}

func (rt *Router) AppendStream(r io.Reader) (appendResponse, error) {
	req, err := rt.parseStream(r)
	if err != nil {
		return appendResponse{}, err
	}
	if len(req.Rows) == 0 && len(req.Values) == 0 {
		return appendResponse{}, fmt.Errorf("empty NDJSON stream")
	}
	return rt.Append(req)
}

func (rt *Router) DeleteStream(r io.Reader) (deleteResponse, error) {
	req, err := rt.parseStream(r)
	if err != nil {
		return deleteResponse{}, err
	}
	if len(req.Rows) == 0 && len(req.Values) == 0 {
		return deleteResponse{}, fmt.Errorf("empty NDJSON stream")
	}
	return rt.Delete(req)
}

func (rt *Router) Refresh() (refreshResponse, error) {
	rr, err := rt.broadcastRefresh(nil)
	if err != nil {
		return refreshResponse{}, err
	}
	resp := refreshResponse{}
	for i, r := range rr {
		if i == 0 || r.Generation < resp.Generation {
			resp.Generation = r.Generation
		}
		resp.Appended += r.Appended
		resp.Deleted += r.Deleted
		resp.PartitionsRecomputed += r.PartitionsRecomputed
		resp.PartitionsTotal += r.PartitionsTotal
		resp.CellsRetained += r.CellsRetained
		resp.CellsRebuilt += r.CellsRebuilt
		if r.ElapsedMs > resp.ElapsedMs { // workers refresh in parallel
			resp.ElapsedMs = r.ElapsedMs
		}
	}
	return resp, nil
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
