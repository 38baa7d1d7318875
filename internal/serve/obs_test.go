package serve

// Observability tests: /metrics exposition from every role, /v1/health role
// reporting, request-ID propagation across a routed topology, the slow-query
// log line, dead-worker stats, and stage-histogram population under a
// WAL-backed workload.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ccubing"
	"ccubing/internal/obs"
)

// scrapeMetrics fetches GET /metrics and returns the exposition text.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics content type = %q, want %q", ct, obs.ContentType)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readBody(t, resp)); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// metricValue extracts one sample's value from exposition text; series is
// the full sample name including its label block, e.g.
// `ccubing_http_request_seconds_count{endpoint="query"}`.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("series %s not found in exposition:\n%s", series, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %s value %q: %v", series, m[1], err)
	}
	return v
}

// TestMetricsAndHealthSingle drives a single-cube server and checks the
// scrape carries transport, cube-state and process families, and that
// /v1/health reports the single role.
func TestMetricsAndHealthSingle(t *testing.T) {
	cube, _ := testCube(t, 1)
	ts := httptest.NewServer(newMux(cube, "", 0))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/query?cell=oslo,pen,2025")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	text := scrapeMetrics(t, ts)
	if got := metricValue(t, text, `ccubing_http_request_seconds_count{endpoint="query"}`); got != 3 {
		t.Fatalf("query request count = %g, want 3", got)
	}
	for _, series := range []string{
		"ccubing_uptime_seconds",
		"ccubing_rate_limited_total",
		"ccubing_generation",
		"ccubing_backlog_rows",
		"ccubing_cells",
		"ccubing_source_rows",
		"ccubing_cache_hits_total",
		"ccubing_cache_misses_total",
		"ccubing_cache_evictions_total",
		"ccubing_refreshes_total",
		"ccubing_probe_ops_total",
		"ccubing_probe_seconds_count",
	} {
		metricValue(t, text, series) // fatal if absent
	}
	// Histogram shape: cumulative buckets end at +Inf and agree with _count.
	if inf := metricValue(t, text, `ccubing_http_request_seconds_bucket{endpoint="query",le="+Inf"}`); inf != 3 {
		t.Fatalf("+Inf bucket = %g, want 3", inf)
	}

	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Role != "single" || h.GoVersion == "" || h.UptimeMs < 0 {
		t.Fatalf("health = %+v", h)
	}
}

// TestHealthRoles pins the role fields: a sharded Local reports its slot, a
// router its worker count.
func TestHealthRoles(t *testing.T) {
	cube, _ := testCube(t, 1)
	l := NewLocal(cube)
	l.SetShard(1, 2)
	if h := l.Health(); h.Role != "shard" || h.Shard != "1/2" {
		t.Fatalf("shard health = %+v", h)
	}

	rt := newTestRouter(t, routerDataset(t), 1, 2)
	if h := rt.Health(); h.Role != "router" || h.Workers != 2 {
		t.Fatalf("router health = %+v", h)
	}
}

// TestRequestIDPropagation stands up two real workers behind header-capturing
// middleware and a router in front: an inbound X-CCubing-Request-ID must
// reach every worker of a scattered query and echo on the router's response.
func TestRequestIDPropagation(t *testing.T) {
	ds := routerDataset(t)
	locals := shardedLocals(t, ds, 1, 2)

	var mu sync.Mutex
	seen := make(map[int][]string) // worker index -> request IDs observed
	var workers []Shard
	for i, l := range locals {
		inner := NewServer(l, Config{}).Handler()
		ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[i] = append(seen[i], r.Header.Get(obs.RequestIDHeader))
			mu.Unlock()
			inner.ServeHTTP(w, r)
		}))
		defer ws.Close()
		w, err := Dial(ws.URL)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	rt, err := NewRouter(workers)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(NewServer(rt, Config{}).Handler())
	defer router.Close()

	// The NewRouter metadata fetch reached the workers untraced; reset.
	mu.Lock()
	seen = make(map[int][]string)
	mu.Unlock()

	const rid = "test-rid-42"
	req, err := http.NewRequest(http.MethodGet, router.URL+"/v1/query?cell=*,pen,*", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != rid {
		t.Fatalf("router echoed ID %q, want %q", got, rid)
	}
	mu.Lock()
	observed := make(map[int][]string, len(seen))
	for i, ids := range seen {
		observed[i] = append([]string(nil), ids...)
	}
	mu.Unlock()
	for i := range locals {
		ids := observed[i]
		if len(ids) == 0 {
			t.Fatalf("worker %d saw no calls for the scattered query", i)
		}
		for _, got := range ids {
			if got != rid {
				t.Fatalf("worker %d saw ID %q, want %q", i, got, rid)
			}
		}
	}

	// Without an inbound header the router mints one and still echoes it.
	resp2, err := http.Get(router.URL + "/v1/query?cell=*,ink,*")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if minted := resp2.Header.Get(obs.RequestIDHeader); minted == "" || minted == rid {
		t.Fatalf("minted ID = %q", minted)
	}
}

// TestSlowQueryLog pins the structured slow-query line: with a threshold
// every request crosses, one line carries the ID, endpoint, spec and stage
// timings.
func TestSlowQueryLog(t *testing.T) {
	cube, _ := testCube(t, 1)
	var buf bytes.Buffer
	var mu sync.Mutex
	logged := func() string { mu.Lock(); defer mu.Unlock(); return buf.String() }
	l := NewLocal(cube)
	srv := NewServer(l, Config{SlowQuery: time.Nanosecond, SlowLog: log.New(lockedWriter{&mu, &buf}, "", 0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/query?cell=oslo,pen,2025", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "slow-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	line := logged()
	for _, want := range []string{
		"slow-query id=slow-1",
		"endpoint=query",
		`spec="cell=oslo,pen,2025"`,
		"resolve=",
		"probe=",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow-query log %q missing %q", line, want)
		}
	}
}

// TestPartialEndpointObservability follows two scattered aggregates — one
// grouping by dimension 0, so the workers cut, one not — from the outside: the
// request ID reaches the workers' internal endpoint, which has its own latency
// series and slow-query lines; the router counts the rows and bytes it
// gathered and the scatter whose cut ran at the workers; and its own
// slow-query line names every stage, render included.
func TestPartialEndpointObservability(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logged := func() string { mu.Lock(); defer mu.Unlock(); return buf.String() }
	slow := Config{SlowQuery: time.Nanosecond, SlowLog: log.New(lockedWriter{&mu, &buf}, "", 0)}

	var workers []Shard
	var workerServers []*httptest.Server
	for _, l := range shardedLocals(t, routerDataset(t), 1, 2) {
		ws := httptest.NewServer(NewServer(l, slow).Handler())
		defer ws.Close()
		w, err := Dial(ws.URL)
		if err != nil {
			t.Fatal(err)
		}
		workers, workerServers = append(workers, w), append(workerServers, ws)
	}
	rt, err := NewRouter(workers)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(NewServer(rt, slow).Handler())
	defer router.Close()

	// Pre-created, like the worker-call counters: present before any traffic.
	fresh := scrapeMetrics(t, router)
	for _, series := range []string{"ccubing_router_partial_rows_total", "ccubing_router_partial_bytes_total", "ccubing_router_pushdown_total"} {
		if v := metricValue(t, fresh, series); v != 0 {
			t.Fatalf("%s = %g before any aggregate, want 0", series, v)
		}
	}

	for i, path := range []string{"/v1/aggregate?group_by=city,product&top_k=3", "/v1/aggregate?group_by=product"} {
		req, err := http.NewRequest(http.MethodGet, router.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.RequestIDHeader, fmt.Sprintf("agg-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
	}

	text := scrapeMetrics(t, router)
	if v := metricValue(t, text, "ccubing_router_pushdown_total"); v != 1 {
		t.Fatalf("pushdown scatters = %g, want 1 of the 2", v)
	}
	// 3 rows from each worker's cut, then 2 products from each worker.
	if v := metricValue(t, text, "ccubing_router_partial_rows_total"); v != 3+3+2+2 {
		t.Fatalf("partial rows gathered = %g, want 10", v)
	}
	if v := metricValue(t, text, "ccubing_router_partial_bytes_total"); v < 4*frameHeaderLen {
		t.Fatalf("partial bytes gathered = %g, want four frames' worth", v)
	}
	if v := metricValue(t, text, `ccubing_router_worker_calls_total{endpoint="aggregate"}`); v != 4 {
		t.Fatalf("aggregate worker calls = %g, want 4", v)
	}
	for _, ws := range workerServers {
		wtext := scrapeMetrics(t, ws)
		if v := metricValue(t, wtext, `ccubing_http_request_seconds_count{endpoint="partial"}`); v != 2 {
			t.Fatalf("worker partial requests = %g, want 2", v)
		}
		if v := metricValue(t, wtext, `ccubing_http_request_seconds_count{endpoint="aggregate"}`); v != 0 {
			t.Fatalf("worker public aggregate requests = %g, want 0", v)
		}
	}
	lines := logged()
	for _, want := range []string{
		"id=agg-0 endpoint=partial", "id=agg-1 endpoint=partial", // the workers, under the router's IDs
		"id=agg-0 endpoint=aggregate", "id=agg-1 endpoint=aggregate", // the router
		`spec="where= group_by=city,product"`,
		"aggregate=", "encode=", // worker stages
		"scatter=", "worker0=", "worker1=", "merge=", "render=", // router stages
	} {
		if !strings.Contains(lines, want) {
			t.Fatalf("slow-query log missing %q:\n%s", want, lines)
		}
	}
}

// lockedWriter serializes log writes against the test's reader.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestRouterDeadWorkerStats pins the tolerant stats contract: a worker that
// dies after construction keeps its Shards slot with Reachable=false and the
// transport error, while a zero-traffic live worker stays Reachable=true —
// and the merged totals cover exactly the reachable workers.
func TestRouterDeadWorkerStats(t *testing.T) {
	ds := routerDataset(t)
	locals := shardedLocals(t, ds, 1, 2)
	var servers []*httptest.Server
	var workers []Shard
	for _, l := range locals {
		ws := httptest.NewServer(NewServer(l, Config{}).Handler())
		servers = append(servers, ws)
		w, err := Dial(ws.URL)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	defer servers[0].Close()
	rt, err := NewRouter(workers)
	if err != nil {
		t.Fatal(err)
	}

	servers[1].Close() // worker 1 dies after the topology came up

	st, err := rt.Stats()
	if err != nil {
		t.Fatalf("stats must not fail wholesale with a dead worker: %v", err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("got %d shard entries, want 2", len(st.Shards))
	}
	w0, w1 := st.Shards[0], st.Shards[1]
	if w0.Reachable == nil || !*w0.Reachable || w0.Error != "" || w0.Worker != servers[0].URL {
		t.Fatalf("live worker entry = %+v", w0)
	}
	if w1.Reachable == nil || *w1.Reachable || w1.Error == "" || w1.Worker != servers[1].URL {
		t.Fatalf("dead worker entry = %+v", w1)
	}
	if st.Live {
		t.Fatal("topology with a dead worker must not report live")
	}
	// Merged totals cover only the reachable worker.
	live, err := locals[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SourceRows != live.SourceRows || st.Cells != live.Cells {
		t.Fatalf("merged totals %d rows/%d cells, want reachable-only %d/%d",
			st.SourceRows, st.Cells, live.SourceRows, live.Cells)
	}
}

// TestStageHistogramsPopulated drives a WAL-backed cube through queries,
// mutations and a refresh, and a scattered query through a router, then
// checks every stage histogram observed at least one sample: probe and
// cache-hit on the query path, WAL append/sync, refresh and each of its
// phases on the write path, scatter and merge on the router.
func TestStageHistogramsPopulated(t *testing.T) {
	cube, _ := testCube(t, 1)
	wal := filepath.Join(t.TempDir(), "delta.wal")
	if err := cube.AutoRefresh(ccubing.AutoRefreshOptions{WAL: wal}); err != nil {
		t.Fatal(err)
	}
	l := NewLocal(cube)

	// Miss then hit: the first Lookup probes the store, the second comes from
	// the result cache.
	for i := 0; i < 2; i++ {
		if _, err := l.Query(queryRequest{Cell: []string{"oslo", "pen", "2025"}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Append(appendRequest{Rows: [][]string{{"oslo", "pen", "2030"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := cube.Close(); err != nil { // syncs the WAL
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := obs.WriteText(&sb, obs.Default); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, series := range []string{
		"ccubing_probe_seconds_count",
		"ccubing_cache_hit_seconds_count",
		"ccubing_wal_append_seconds_count",
		"ccubing_wal_sync_seconds_count",
		"ccubing_refresh_seconds_count",
		`ccubing_refresh_phase_seconds_count{phase="fold"}`,
		`ccubing_refresh_phase_seconds_count{phase="delta"}`,
		`ccubing_refresh_phase_seconds_count{phase="merge"}`,
		`ccubing_refresh_phase_seconds_count{phase="publish"}`,
		"ccubing_refresh_delta_visits_total",
	} {
		if v := metricValue(t, text, series); v <= 0 {
			t.Fatalf("%s = %g, want > 0", series, v)
		}
	}
	if strings.Contains(text, `phase="shard"`) {
		t.Fatal(`a refresh has no shard phase: it runs no engine`)
	}

	// Router stages: one scattered query populates scatter, merge and the
	// per-worker histograms on the router's own registry.
	rt := newTestRouter(t, routerDataset(t), 1, 2)
	if _, err := rt.Query(queryRequest{Cell: []string{"*", "pen", "*"}}); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := obs.WriteText(&sb, rt.MetricsRegistry()); err != nil {
		t.Fatal(err)
	}
	rtext := sb.String()
	for _, series := range []string{
		"ccubing_router_scatter_seconds_count",
		"ccubing_router_merge_seconds_count",
		`ccubing_router_worker_seconds_count{worker="0"}`,
		`ccubing_router_worker_seconds_count{worker="1"}`,
	} {
		if v := metricValue(t, rtext, series); v != 1 {
			t.Fatalf("%s = %g, want 1", series, v)
		}
	}
	if v := metricValue(t, rtext, `ccubing_router_worker_calls_total{endpoint="query"}`); v != 2 {
		t.Fatalf("worker query calls = %g, want 2", v)
	}
	if v := metricValue(t, rtext, "ccubing_router_workers"); v != 2 {
		t.Fatalf("workers gauge = %g, want 2", v)
	}
}

// TestAggregateWorkCounters checks the aggregate-engine work counters: every
// role's scrape carries them, and one selective iceberg aggregate advances
// them by what the engine did — one run, and as many residual rows examined
// as satisfy the predicate, not as many as the residual holds.
func TestAggregateWorkCounters(t *testing.T) {
	var rows [][]string
	for c := 0; c < 12; c++ {
		for _, prod := range []string{"pen", "ink", "cap"} {
			rows = append(rows, []string{fmt.Sprintf("city%02d", c), prod, "2025"})
		}
	}
	for i := 0; i < 4; i++ {
		rows = append(rows, []string{"city00", "pen", "2025"}) // the one tuple above the threshold
	}
	ds, err := ccubing.NewDataset([]string{"city", "product", "year"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	const minsup, residualRows, penResidualRows = 3, 35, 11

	var workers []Shard
	for _, l := range shardedLocals(t, ds, minsup, 2) {
		ws := httptest.NewServer(NewServer(l, Config{}).Handler())
		defer ws.Close()
		w, err := Dial(ws.URL)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		scrapeAggregateCounters(t, ws)
	}
	rt, err := NewRouter(workers)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(NewServer(rt, Config{}).Handler())
	defer router.Close()
	scrapeAggregateCounters(t, router)

	single := httptest.NewServer(NewServer(globalLocal(t, ds, minsup), Config{}).Handler())
	defer single.Close()
	before := scrapeAggregateCounters(t, single)
	resp, err := http.Post(single.URL+"/v1/aggregate", "application/json",
		strings.NewReader(`{"where":["*","pen","*"],"group_by":["city"],"top_k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var agg aggregateResponse
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !agg.Exact || len(agg.Rows) != 3 || agg.Rows[0].Count != 5 {
		t.Fatalf("aggregate = %+v, want 3 exact rows led by city00's 5 pens", agg)
	}
	after := scrapeAggregateCounters(t, single)
	delta := func(series string) float64 { return after[series] - before[series] }
	if got := delta("ccubing_aggregate_runs_total"); got != 1 {
		t.Fatalf("runs advanced by %g, want 1", got)
	}
	if got := delta("ccubing_aggregate_combinations_total"); got != 1 {
		t.Fatalf("combinations advanced by %g, want 1 (city00, pen)", got)
	}
	examined := delta("ccubing_aggregate_residual_examined_total")
	if examined != penResidualRows {
		t.Fatalf("examined %g residual rows, want the %d the predicate keeps of %d", examined, penResidualRows, residualRows)
	}
	if folded := delta("ccubing_aggregate_residual_folded_total"); folded != penResidualRows {
		t.Fatalf("folded %g residual rows, want %d (no stored cell covers them)", folded, penResidualRows)
	}
}

// scrapeAggregateCounters reads the aggregate-engine counters off a role's
// /metrics, failing when one is absent.
func scrapeAggregateCounters(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	text := scrapeMetrics(t, ts)
	out := map[string]float64{}
	for _, series := range []string{
		"ccubing_aggregate_runs_total",
		"ccubing_aggregate_combinations_total",
		"ccubing_aggregate_residual_examined_total",
		"ccubing_aggregate_residual_folded_total",
	} {
		out[series] = metricValue(t, text, series)
	}
	return out
}

// TestSnapshotLoadMetrics scrapes what explains ready_s and rebuild_s from
// the outside: a server booted from a snapshot has one observation per load
// phase and the snapshot's size, each reload adds one observation and moves
// the gauge to the new file, a refused reload adds none, and a cube built
// from data reports no load at all.
func TestSnapshotLoadMetrics(t *testing.T) {
	cube, _ := testCube(t, 1)
	stale := saveTo(t, cube)
	if _, err := cube.Append([][]string{{"oslo", "pen", "2030"}, {"turin", "ink", "2031"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Refresh(); err != nil {
		t.Fatal(err)
	}
	fresher := saveTo(t, cube)
	size := func(path string) float64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return float64(st.Size())
	}
	if size(stale) == size(fresher) {
		t.Fatal("the two snapshots must differ in size for the gauge to be told apart")
	}

	ts := httptest.NewServer(newMux(loadCube(t, stale), stale, 0))
	defer ts.Close()
	check := func(when string, loads, bytes float64) {
		t.Helper()
		text := scrapeMetrics(t, ts)
		for _, phase := range []string{"read", "verify", "index"} {
			series := `ccubing_snapshot_load_seconds_count{phase="` + phase + `"}`
			if v := metricValue(t, text, series); v != loads {
				t.Fatalf("%s: %s = %g, want %g", when, series, v, loads)
			}
		}
		if v := metricValue(t, text, "ccubing_snapshot_bytes"); v != bytes {
			t.Fatalf("%s: ccubing_snapshot_bytes = %g, want %g", when, v, bytes)
		}
	}
	check("after boot", 1, size(stale))
	if resp := postJSON(t, ts, "/v1/reload", reloadRequest{Path: fresher}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d", resp.StatusCode)
	}
	check("after a reload", 2, size(fresher))
	if resp := postJSON(t, ts, "/v1/reload", reloadRequest{Path: stale}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("regressing reload: %d, want 409", resp.StatusCode)
	}
	check("after a refused reload", 2, size(fresher))

	built := httptest.NewServer(newMux(cube, "", 0))
	defer built.Close()
	ts = built
	check("cube built from data", 0, 0)
}
