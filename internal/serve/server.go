package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccubing/internal/obs"
)

// Server is the HTTP transport over a Shard: it owns request parsing (GET
// parameters and JSON bodies), body-size ceilings, mutation rate limiting
// and per-endpoint counters, and delegates every semantic decision —
// validation against the cube, routing, merging — to the Shard. The same
// Server therefore fronts a single cube, a shard worker and a router.
type Server struct {
	shard   Shard
	start   time.Time    // construction time, for /v1/stats uptime
	limiter *tokenBucket // rate limit on mutating endpoints; nil = unlimited
	mux     *http.ServeMux

	// reg holds this server's transport metrics (per-endpoint latency
	// histograms, rate-limit turn-aways, uptime); GET /metrics merges it
	// with the shard's registry and obs.Default.
	reg     *obs.Registry
	slow    time.Duration // slow-query log threshold; 0 = disabled
	slowLog *log.Logger

	// Per-endpoint request counters, exposed by /v1/stats.
	nCube, nQuery, nSlice, nAggregate, nPartial, nAppend, nDelete, nUpdate, nMutate, nRefresh, nReload, nStats atomic.Int64
	nRateLimited                                                                                               atomic.Int64
}

// Config carries the transport-level knobs.
type Config struct {
	// Rate bounds the mutating endpoints (append/delete/update/refresh/
	// reload) to this many requests per second via a shared token bucket;
	// 0 = unlimited.
	Rate float64
	// SlowQuery logs one structured line (request ID, endpoint, spec,
	// per-stage timings) for every request slower than this; 0 disables.
	SlowQuery time.Duration
	// SlowLog receives the slow-query lines; nil logs to stderr.
	SlowLog *log.Logger
}

// tokenBucket rate-limits the mutating endpoints: rate tokens/second refill
// a bucket of burst capacity; a request spends one token or is turned away
// with the time until the next one.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64) *tokenBucket {
	burst := math.Ceil(rate)
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// take spends one token, or reports how long until one accrues.
func (b *tokenBucket) take() (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// allowMutation gates a mutating request through the token bucket; on
// rejection it writes 429 with a Retry-After hint and counts the turn-away.
func (s *Server) allowMutation(w http.ResponseWriter) bool {
	if s.limiter == nil {
		return true
	}
	ok, retry := s.limiter.take()
	if ok {
		return true
	}
	s.nRateLimited.Add(1)
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, fmt.Errorf("rate limit exceeded; retry in %ds", secs))
	return false
}

// Request-body ceilings: queries are small; appends carry batches of rows.
// Oversized bodies are rejected with 413 via http.MaxBytesReader.
const (
	maxQueryBody  = 1 << 20
	maxAppendBody = 32 << 20
)

// NewServer builds the HTTP surface over a shard. The routing table:
//
//	GET  /healthz       liveness probe
//	GET  /v1/cube       cube metadata
//	GET  /v1/query      ?cell=v0,v1,*,v3 (labels when the cube has
//	                    dictionaries, coded values otherwise; * = wildcard)
//	                    or ?values=3,-1,7 (dictionary codes, -1 = wildcard)
//	POST /v1/query      {"cell": ["a","*"]} or {"values": [3,-1]}
//	GET  /v1/slice      ?cell=...&limit=N (or ?values=..., like /v1/query)
//	POST /v1/slice      {"cell": [...], "limit": N}
//	GET  /v1/aggregate  ?where=*,a|b,x..y&group_by=d1,d2&top_k=5&order_by=count
//	POST /v1/aggregate  {"where": [...], "group_by": [...], "top_k": 5,
//	                    "order_by": "count"|"aux", "aux_agg": "sum"|"min"|"max"}
//	POST /v1/append     {"rows": [["a","b"],...]} or {"values": [[1,2],...]},
//	                    optional "aux": [...] and "refresh": true — or an
//	                    application/x-ndjson stream, one tuple per line
//	POST /v1/delete     same body shapes as /v1/append; each tuple is a
//	                    tombstone removing one matching occurrence
//	POST /v1/update     {"old_rows": [...], "new_rows": [...]} (labels) or
//	                    {"old_values": [...], "new_values": [...]} (codes),
//	                    optional "old_aux"/"new_aux" and "refresh": true
//	POST /v1/refresh    fold the buffered delta in (partition-scoped)
//	POST /v1/reload     {"path": "..."} warm snapshot reload (defaults to the
//	                    -snapshot path); 501 on shards without one (routers)
//	GET  /v1/stats      generation, backlog, refresh latency, per-endpoint
//	                    query counters (plus per-worker stats on a router)
//	GET  /v1/health     role, shard slot or worker count, generation,
//	                    backlog, uptime — the load-balancer check
//	GET  /metrics       Prometheus text exposition: transport, shard and
//	                    process metrics merged into one scrape
//	POST /internal/v1/partial
//	                    the /v1/aggregate body in, the answer out as one binary
//	                    partial frame: what a router's Dial asks its workers
//	                    (see partialPath; not part of the public API)
//	POST /internal/v1/mutate
//	                    a worker's whole share of a routed append, delete or
//	                    update as one batch of ops (see mutatePath; not part
//	                    of the public API)
//
// Every v1 endpoint echoes an X-CCubing-Request-ID header (honoring an
// inbound one), which a router propagates to its workers — one ID follows a
// request across the topology. Wrong-method hits on the v1 endpoints get 405
// with an Allow header (the Go 1.22 ServeMux method-pattern contract).
// Mutating endpoints share the Config.Rate token bucket; over-budget
// requests get 429 with Retry-After.
func NewServer(shard Shard, cfg Config) *Server {
	s := &Server{
		shard:   shard,
		start:   time.Now(),
		mux:     http.NewServeMux(),
		reg:     obs.NewRegistry(),
		slow:    cfg.SlowQuery,
		slowLog: cfg.SlowLog,
	}
	if s.slowLog == nil {
		s.slowLog = log.New(os.Stderr, "", log.LstdFlags)
	}
	if cfg.Rate > 0 {
		s.limiter = newTokenBucket(cfg.Rate)
	}
	s.reg.GaugeFunc("ccubing_uptime_seconds", "Seconds since this server was built.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.CounterFunc("ccubing_rate_limited_total", "Mutating requests turned away by the rate limiter.",
		func() int64 { return s.nRateLimited.Load() })
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /v1/cube", s.wrap("cube", &s.nCube, s.handleCube))
	s.mux.HandleFunc("GET /v1/query", s.wrap("query", &s.nQuery, s.handleQuery))
	s.mux.HandleFunc("POST /v1/query", s.wrap("query", &s.nQuery, s.handleQuery))
	s.mux.HandleFunc("GET /v1/slice", s.wrap("slice", &s.nSlice, s.handleSlice))
	s.mux.HandleFunc("POST /v1/slice", s.wrap("slice", &s.nSlice, s.handleSlice))
	s.mux.HandleFunc("GET /v1/aggregate", s.wrap("aggregate", &s.nAggregate, s.handleAggregate))
	s.mux.HandleFunc("POST /v1/aggregate", s.wrap("aggregate", &s.nAggregate, s.handleAggregate))
	s.mux.HandleFunc("POST "+partialPath, s.wrap("partial", &s.nPartial, s.handlePartial))
	s.mux.HandleFunc("POST /v1/append", s.wrap("append", &s.nAppend, s.handleMutation("append")))
	s.mux.HandleFunc("POST /v1/delete", s.wrap("delete", &s.nDelete, s.handleMutation("delete")))
	s.mux.HandleFunc("POST /v1/update", s.wrap("update", &s.nUpdate, s.handleMutation("update")))
	s.mux.HandleFunc("POST "+mutatePath, s.wrap("mutate", &s.nMutate, s.handleMutation("mutate")))
	s.mux.HandleFunc("POST /v1/refresh", s.wrap("refresh", &s.nRefresh, s.handleRefresh))
	s.mux.HandleFunc("POST /v1/reload", s.wrap("reload", &s.nReload, s.handleReload))
	s.mux.HandleFunc("GET /v1/stats", s.wrap("stats", &s.nStats, s.handleStats))
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// wrap is the per-endpoint middleware: it counts the request, assigns or
// honors the request ID (echoed on the response and carried by the trace to
// every stage, including a router's worker calls), times the request into
// the endpoint's latency histogram, and emits the slow-query log line when
// the request crosses the configured threshold. Scrape and liveness
// endpoints stay unwrapped — they are not request traffic.
func (s *Server) wrap(endpoint string, count *atomic.Int64, fn func(http.ResponseWriter, *http.Request, *obs.Trace)) http.HandlerFunc {
	hist := s.reg.Histogram("ccubing_http_request_seconds",
		"HTTP request latency by endpoint.", "endpoint", endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		count.Add(1)
		rid := r.Header.Get(obs.RequestIDHeader)
		if rid == "" {
			rid = obs.NewID()
		}
		w.Header().Set(obs.RequestIDHeader, rid)
		tr := obs.NewTrace(rid)
		startReq := time.Now()
		fn(w, r, tr)
		elapsed := time.Since(startReq)
		hist.Observe(elapsed)
		if s.slow > 0 && elapsed >= s.slow {
			s.slowLog.Printf("slow-query id=%s endpoint=%s dur=%s spec=%q stages=[%s]",
				rid, endpoint, elapsed.Round(time.Microsecond), tr.Note, tr)
		}
	}
}

// handleMetrics serves the merged Prometheus exposition: this server's
// transport metrics, the shard's own registry when it has one (Local's cube
// gauges, a Router's per-worker series), and the process-wide obs.Default
// (probe, cache and WAL instrumentation).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	regs := make([]*obs.Registry, 0, 3)
	regs = append(regs, s.reg)
	if mp, ok := s.shard.(metricsProvider); ok {
		regs = append(regs, mp.MetricsRegistry())
	}
	regs = append(regs, obs.Default)
	w.Header().Set("Content-Type", obs.ContentType)
	_ = obs.WriteText(w, regs...)
}

// handleHealth answers the load-balancer check: transport fields from the
// server, role fields from the shard when it reports them.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Role: "single"}
	if h, ok := s.shard.(healther); ok {
		resp = h.Health()
	}
	resp.Status = "ok"
	resp.UptimeMs = time.Since(s.start).Milliseconds()
	resp.GoVersion = runtime.Version()
	writeJSON(w, http.StatusOK, resp)
}

// Handler returns the serving mux.
func (s *Server) Handler() http.Handler { return s.mux }

// EnablePprof exposes the net/http/pprof endpoints on the serving mux
// (which is not http.DefaultServeMux, so the package's init registration
// does not apply). Opt-in: profiling handlers reveal internals and cost CPU.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func (s *Server) handleCube(w http.ResponseWriter, r *http.Request, _ *obs.Trace) {
	resp, err := s.shard.Meta()
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// readQueryRequest extracts the queryRequest from the GET parameters or the
// JSON body. Semantic validation (exactly-one-of, arity, label resolution)
// belongs to the Shard; this only gets the bytes into the struct, rejecting
// what cannot even be represented.
func (s *Server) readQueryRequest(w http.ResponseWriter, r *http.Request) (queryRequest, error) {
	var req queryRequest
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		cell, values := q.Get("cell"), q.Get("values")
		if (cell == "") == (values == "") {
			return req, fmt.Errorf(`exactly one of the "cell" and "values" parameters is required`)
		}
		if cell != "" {
			req.Cell = strings.Split(cell, ",")
		} else {
			for _, part := range strings.Split(values, ",") {
				v, err := strconv.ParseInt(part, 10, 32)
				if err != nil {
					return req, fmt.Errorf("bad coded value %q", part)
				}
				req.Values = append(req.Values, int32(v))
			}
		}
		// Same contract as the POST body: negative or non-numeric limits are
		// errors, 0 (or absent) means the default.
		if ls := q.Get("limit"); ls != "" {
			var err error
			if req.Limit, err = strconv.Atoi(ls); err != nil || req.Limit < 0 {
				return req, fmt.Errorf("bad limit %q", ls)
			}
		}
		return req, nil
	}
	return req, decodeJSON(http.MaxBytesReader(w, r.Body, maxQueryBody), &req)
}

// cellSpec renders the point-query target for the slow-query log note.
func cellSpec(req queryRequest) string {
	if len(req.Cell) > 0 {
		return "cell=" + strings.Join(req.Cell, ",")
	}
	parts := make([]string, len(req.Values))
	for i, v := range req.Values {
		parts[i] = strconv.FormatInt(int64(v), 10)
	}
	return "values=" + strings.Join(parts, ",")
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, tr *obs.Trace) {
	req, err := s.readQueryRequest(w, r)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	req.trace = tr
	tr.Note = cellSpec(req)
	resp, err := s.shard.Query(req)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request, tr *obs.Trace) {
	req, err := s.readQueryRequest(w, r)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	req.trace = tr
	tr.Note = cellSpec(req)
	resp, err := s.shard.Slice(req)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// readAggregateRequest extracts the aggregateRequest from the GET parameters
// or the JSON body, and notes its spec on the trace for the slow-query log.
func (s *Server) readAggregateRequest(w http.ResponseWriter, r *http.Request, tr *obs.Trace) (aggregateRequest, error) {
	var req aggregateRequest
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		if where := q.Get("where"); where != "" {
			req.Where = strings.Split(where, ",")
		}
		if gb := q.Get("group_by"); gb != "" {
			req.GroupBy = strings.Split(gb, ",")
		}
		if tk := q.Get("top_k"); tk != "" {
			v, err := strconv.Atoi(tk)
			if err != nil || v < 0 {
				return req, fmt.Errorf("bad top_k %q", tk)
			}
			req.TopK = v
		}
		req.OrderBy = q.Get("order_by")
		req.AuxAgg = q.Get("aux_agg")
	} else {
		if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxQueryBody), &req); err != nil {
			return req, err
		}
	}
	req.trace = tr
	tr.Note = "where=" + strings.Join(req.Where, ",") + " group_by=" + strings.Join(req.GroupBy, ",")
	return req, nil
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request, tr *obs.Trace) {
	req, err := s.readAggregateRequest(w, r, tr)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	resp, err := s.shard.Aggregate(req)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// partialPath is the internal worker endpoint behind a router's Dial: the
// /v1/aggregate request body in, the shard's answer out as one partial frame
// (frame.go) instead of rendered JSON. Not part of the public API — the
// frame has one version and only this build's Dial reads it.
const partialPath = "/internal/v1/partial"

func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request, tr *obs.Trace) {
	req, err := s.readAggregateRequest(w, r, tr)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	p, err := s.shard.AggregatePartial(req)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	start := time.Now()
	frame := encodeFrame(nil, p)
	tr.Observe("encode", time.Since(start))
	w.Header().Set("Content-Type", frameContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame)
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request, _ *obs.Trace) {
	if !s.allowMutation(w) {
		return
	}
	resp, err := s.shard.Refresh()
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request, _ *obs.Trace) {
	if !s.allowMutation(w) {
		return
	}
	var req reloadRequest
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxQueryBody), &req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, httpStatus(err), err)
		return
	}
	rl, ok := s.shard.(reloader)
	if !ok {
		writeError(w, http.StatusNotImplemented,
			fmt.Errorf("reload is not supported on this node; reload each shard worker directly"))
		return
	}
	resp, err := rl.Reload(req)
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, _ *obs.Trace) {
	resp, err := s.shard.Stats()
	if err != nil {
		writeError(w, httpStatus(err), err)
		return
	}
	// Transport-level counters belong to this node, not the shard: a router
	// reports its own request mix here, with each worker's in Shards.
	resp.UptimeMs = time.Since(s.start).Milliseconds()
	resp.RateLimited = s.nRateLimited.Load()
	resp.Requests = map[string]int64{
		"cube":      s.nCube.Load(),
		"query":     s.nQuery.Load(),
		"slice":     s.nSlice.Load(),
		"aggregate": s.nAggregate.Load(),
		"partial":   s.nPartial.Load(),
		"append":    s.nAppend.Load(),
		"delete":    s.nDelete.Load(),
		"update":    s.nUpdate.Load(),
		"mutate":    s.nMutate.Load(),
		"refresh":   s.nRefresh.Load(),
		"reload":    s.nReload.Load(),
		"stats":     s.nStats.Load(),
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeJSON reads one JSON value from a request body into v.
func decodeJSON(body io.Reader, v any) error {
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
