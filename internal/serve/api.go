// Package serve is ccserve's serving layer, factored out of the command so
// one HTTP surface runs in three roles:
//
//   - single: a Local shard over one in-process cube — the classic ccserve;
//   - shard worker: the same Local over a cube materialized from one shard
//     of the relation (Dataset.Shard), owning the leading-dimension
//     components that hash to it;
//   - router: a Router scatter-gathering over shard workers, answering the
//     identical HTTP API.
//
// The split rests on the paper's Sec. 6.3 partition argument: sharding
// tuples on one dimension makes every closed cell that fixes the dimension
// shard-local, so queries binding it route to one worker and answer
// byte-identically to a single store. Only wildcard-on-the-routing-dimension
// work scatters.
package serve

import (
	"errors"
	"fmt"
	"net/http"

	"ccubing/internal/obs"
)

// Shard is the serving surface the HTTP layer runs over: one in-process cube
// (Local), a remote worker (Dial), or a scatter-gather router over many
// (Router). Methods speak the wire types directly, so a Server can front any
// of them and a Router can treat its backends uniformly.
//
// Errors returned by a Shard may be *StatusError to pick the HTTP status;
// anything else maps to 400 (or 413 for a body-limit breach).
type Shard interface {
	Meta() (cubeResponse, error)
	Query(queryRequest) (queryResponse, error)
	Slice(queryRequest) (sliceResponse, error)
	Aggregate(aggregateRequest) (aggregateResponse, error)
	// AggregatePartial is Aggregate in mergeable form (see aggPartial): what a
	// Router gathers from its workers, cut to the request's top_k when set.
	AggregatePartial(aggregateRequest) (*aggPartial, error)
	// Mutate is the one write path: appends, deletes and updates, by label or
	// by code, from a JSON body or an NDJSON stream, all arrive as one batch
	// of ops, which a shard validates and buffers whole or not at all. A
	// Router gives each owning worker its share in exactly one call, so that
	// holds per worker.
	Mutate(mutationRequest) (mutationResponse, error)
	Refresh() (refreshResponse, error)
	Stats() (statsResponse, error)
}

// reloader is the optional warm snapshot-reload surface: only Local
// implements it (a router has no single snapshot to load); the Server
// type-asserts and answers 501 otherwise.
type reloader interface {
	Reload(reloadRequest) (reloadResponse, error)
}

// metricsProvider is the optional per-shard metrics surface: a Local or
// Router that owns an obs.Registry exposes it here, and the Server's
// /metrics handler merges it into the scrape alongside the transport
// registry and obs.Default.
type metricsProvider interface {
	MetricsRegistry() *obs.Registry
}

// healther is the optional shard-role health surface behind GET /v1/health.
// The Server fills the transport fields (status, uptime, Go version); the
// shard reports what it is.
type healther interface {
	Health() healthResponse
}

// addresser identifies a remote shard by its base URL — implemented by
// Dial'd workers, used by the router's stats to name each worker entry.
type addresser interface {
	Addr() string
}

// StatusError is an error carrying the HTTP status it should be served
// with. Shards return it to make validation (400), conflicts (409), refresh
// failures (500), unreachable workers (502) and unsupported router
// operations (501) survive the Shard interface — and a round trip through a
// remote worker, whose non-2xx responses decode back into a StatusError.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string { return e.Msg }

// statusErrorf builds a StatusError like fmt.Errorf.
func statusErrorf(code int, format string, args ...any) *StatusError {
	return &StatusError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// httpStatus maps a Shard error to its HTTP status: an explicit
// StatusError's code, 413 when the request body blew the MaxBytesReader
// ceiling, 400 otherwise.
func httpStatus(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// mutateError wraps a failed mutation. Batch validation is all-or-nothing, so n > 0 with an error means the rows ARE buffered and the
// failure was the triggered refresh — a server-side 500 naming the buffered
// count, so clients don't retry and double-buffer the batch. n == 0 is the
// usual request rejection.
func mutateError(n int, err error) error {
	if n > 0 {
		return statusErrorf(http.StatusInternalServerError,
			"%d rows buffered, but the triggered refresh failed (do not resend the batch): %v", n, err)
	}
	return err
}

// queryRequest is the JSON body of /v1/query and /v1/slice. Exactly one of
// Cell (labels, "*" = wildcard) and Values (dictionary codes, -1 = wildcard)
// must be set.
type queryRequest struct {
	Cell   []string `json:"cell,omitempty"`
	Values []int32  `json:"values,omitempty"`
	Limit  int      `json:"limit,omitempty"`

	// trace carries the request's ID and stage timings through the shard
	// stack in-process. Unexported: it never crosses the wire as JSON — a
	// remote worker gets the ID via the X-CCubing-Request-ID header instead
	// (see httpShard.do) and starts its own trace for its local stages.
	trace *obs.Trace
}

type queryResponse struct {
	Found   bool     `json:"found"`
	Count   int64    `json:"count"`
	Closure []string `json:"closure,omitempty"`
	Aux     *float64 `json:"aux,omitempty"`
	// AuxRaw is the stored mergeable form of the measure, set only where it
	// differs from Aux: on avg cubes with stored aggregates it is the running
	// sum whose presented mean is Aux. Routers merge shard answers through
	// AuxRaw (sums add exactly; means do not) and present once at the end.
	AuxRaw *float64 `json:"aux_raw,omitempty"`
}

type sliceCell struct {
	Cell  []string `json:"cell"`
	Count int64    `json:"count"`
	Aux   *float64 `json:"aux,omitempty"`
}

type sliceResponse struct {
	Cells     []sliceCell `json:"cells"`
	Truncated bool        `json:"truncated"`
}

type cubeResponse struct {
	Dims        int      `json:"dims"`
	Names       []string `json:"names"`
	Cells       int64    `json:"cells"`
	Cuboids     int      `json:"cuboids"`
	MinSup      int64    `json:"minsup"`
	Labeled     bool     `json:"labeled"`
	Measure     bool     `json:"measure"`
	MeasureKind string   `json:"measure_kind"`
	SizeByte    int64    `json:"size_bytes"`
	Generation  uint64   `json:"generation"`
	SourceRows  int64    `json:"source_rows"`
	Live        bool     `json:"live"` // accepts /v1/append + /v1/refresh
	// Shard is "index/count" on a worker serving one shard of a topology.
	Shard string `json:"shard,omitempty"`
	// Shards is the topology width on a router.
	Shards int `json:"shards,omitempty"`
}

// aggregateRequest is the JSON body (and GET parameter set) of /v1/aggregate.
type aggregateRequest struct {
	// Where holds one predicate component per dimension ("*" wildcard, "v"
	// exact, "lo..hi" range, "a|b" set — labels on labeled cubes, codes
	// otherwise); omitted means all wildcards.
	Where   []string `json:"where,omitempty"`
	GroupBy []string `json:"group_by,omitempty"`
	TopK    int      `json:"top_k,omitempty"`
	OrderBy string   `json:"order_by,omitempty"` // "count" (default) or "aux"
	// AuxAgg combines measure values across the grouped cells: "sum", "min",
	// "max" or "avg"; empty defaults to the cube's own combiner (avg on avg
	// cubes with stored aggregates, sum otherwise).
	AuxAgg string `json:"aux_agg,omitempty"`

	trace *obs.Trace // in-process stage accounting; see queryRequest.trace
}

type aggregateRow struct {
	Cell  []string `json:"cell"`
	Count int64    `json:"count"`
	Aux   *float64 `json:"aux,omitempty"`
	// AuxRaw is the stored mergeable form of Aux, set only on avg
	// aggregations: the group's running sum, whose presented mean is Aux.
	AuxRaw *float64 `json:"aux_raw,omitempty"`
}

type aggregateResponse struct {
	Rows []aggregateRow `json:"rows"`
	// Exact reports that the answer equals the minsup-1 ground truth. It is
	// true on minsup-1 cubes and on iceberg cubes whose store carries the
	// residual summary of below-threshold mass; it is false only for an
	// iceberg store built without one, where absent combinations make every
	// aggregate a lower bound. A router reports the AND of its shards' flags.
	Exact bool `json:"exact"`
}

// appendRequest is the JSON body of /v1/append and /v1/delete. Exactly one
// of Rows (labels) and Values (dictionary codes) must be set; Aux carries
// one measure value per row on measure cubes; Refresh folds the delta in
// before responding.
type appendRequest struct {
	Rows    [][]string `json:"rows,omitempty"`
	Values  [][]int32  `json:"values,omitempty"`
	Aux     []float64  `json:"aux,omitempty"`
	Refresh bool       `json:"refresh,omitempty"`
}

// appendResponse, deleteResponse and updateResponse are a mutationResponse
// under each endpoint's name for the count.
type appendResponse struct {
	Appended   int    `json:"appended"`
	Backlog    int    `json:"backlog"`
	Generation uint64 `json:"generation"`
	Refreshed  bool   `json:"refreshed"`
}

type deleteResponse struct {
	Deleted    int    `json:"deleted"`
	Backlog    int    `json:"backlog"`
	Generation uint64 `json:"generation"`
	Refreshed  bool   `json:"refreshed"`
}

// updateRequest is the JSON body of /v1/update: parallel old/new batches in
// exactly one of the labeled (old_rows/new_rows) and coded
// (old_values/new_values) forms, with per-row measure values on measure
// cubes. Each pair atomically replaces one occurrence of the old tuple with
// the new one on the next refresh. Routed through a Router, a pair whose old
// and new tuples hash to different shards becomes a delete in the old owner's
// batch and an append in the new owner's — each batch atomic within its
// worker's delta, but not the two across workers.
type updateRequest struct {
	OldRows   [][]string `json:"old_rows,omitempty"`
	NewRows   [][]string `json:"new_rows,omitempty"`
	OldValues [][]int32  `json:"old_values,omitempty"`
	NewValues [][]int32  `json:"new_values,omitempty"`
	OldAux    []float64  `json:"old_aux,omitempty"`
	NewAux    []float64  `json:"new_aux,omitempty"`
	Refresh   bool       `json:"refresh,omitempty"`
}

type updateResponse struct {
	Updated    int    `json:"updated"`
	Backlog    int    `json:"backlog"`
	Generation uint64 `json:"generation"`
	Refreshed  bool   `json:"refreshed"`
}

type refreshResponse struct {
	Generation           uint64  `json:"generation"`
	Appended             int     `json:"appended"`
	Deleted              int     `json:"deleted"`
	PartitionsRecomputed int     `json:"partitions_recomputed"`
	PartitionsTotal      int     `json:"partitions_total"`
	CellsRetained        int64   `json:"cells_retained"`
	CellsRebuilt         int64   `json:"cells_rebuilt"`
	ElapsedMs            float64 `json:"elapsed_ms"`
}

// reloadRequest is the JSON body of /v1/reload; an empty body reloads the
// path the server was started with (-snapshot). Force is required to reload
// over a live cube with a non-empty append backlog (the buffered rows are
// discarded) — a snapshot-loaded cube is static, so reload also ends the
// append/refresh surface until restart.
type reloadRequest struct {
	Path  string `json:"path,omitempty"`
	Force bool   `json:"force,omitempty"`
}

type reloadResponse struct {
	Path       string `json:"path"`
	Generation uint64 `json:"generation"`
	Cells      int64  `json:"cells"`
	SourceRows int64  `json:"source_rows"`
}

type statsResponse struct {
	Generation       uint64           `json:"generation"`
	SourceRows       int64            `json:"source_rows"`
	Backlog          int              `json:"backlog"`
	Cells            int64            `json:"cells"`
	Live             bool             `json:"live"`
	Refreshes        int64            `json:"refreshes"`
	LastRefreshMs    float64          `json:"last_refresh_ms"`
	LastRefreshError string           `json:"last_refresh_error,omitempty"`
	UptimeMs         int64            `json:"uptime_ms"`
	RateLimited      int64            `json:"rate_limited"`
	CacheHits        int64            `json:"cache_hits"`
	CacheMisses      int64            `json:"cache_misses"`
	Requests         map[string]int64 `json:"requests,omitempty"`
	// Shards carries the per-worker stats on a router (each entry is the
	// worker's own /v1/stats answer, request counters included). The router
	// fills Worker/Reachable/Error per entry: an unreachable worker keeps its
	// slot with Reachable=false and the error, instead of failing the whole
	// stats call — so a dead worker is distinguishable from a zero-traffic
	// one, and the merged totals cover exactly the reachable workers.
	Shards []statsResponse `json:"shards,omitempty"`

	// Per-worker identity fields, set only on entries of a router's Shards.
	Worker    string `json:"worker,omitempty"`    // worker base URL (or #index)
	Reachable *bool  `json:"reachable,omitempty"` // nil outside router entries
	Error     string `json:"error,omitempty"`     // transport/stats failure
}

// healthResponse is the body of GET /v1/health: cheap enough for a
// load-balancer check on any role. The Server fills Status, UptimeMs and
// GoVersion; the shard behind it fills the role fields. A router reports its
// worker count without fanning out — per-worker generations come from the
// workers' own /v1/health or the router's /v1/stats.
type healthResponse struct {
	Status     string `json:"status"`
	Role       string `json:"role"`              // "single", "shard" or "router"
	Shard      string `json:"shard,omitempty"`   // "index/count" on a shard worker
	Workers    int    `json:"workers,omitempty"` // topology width on a router
	Generation uint64 `json:"generation"`
	Backlog    int    `json:"backlog"`
	UptimeMs   int64  `json:"uptime_ms"`
	GoVersion  string `json:"go_version,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}
