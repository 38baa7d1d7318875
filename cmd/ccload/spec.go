package main

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repository
// root states the same tables for the driver; TestSpecMatchesBenchmarkJSON
// keeps the two from drifting.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) error
}

// refSeconds is the measuring time of refPasses passes on the reference box:
// every workload sizes one pass of its tracks, with its share of the timed
// builds, boots and refreshes, to about refSeconds/refPasses. minPasses is
// the fewest passes a run measures, whatever -seconds says: with fewer the
// block estimate has nothing to leave out.
const (
	refSeconds = 14
	refPasses  = 10
	minPasses  = 3
)

var workloads = []workloadSpec{
	{Name: "build-star", run: runBuild,
		Why: "in-process facade, T=120k D=8 C=50 minsup 4: AlgAuto picks CC(Star); engines, sink and store builder do all the work, the serving stack none"},
	{Name: "build-mm", run: runBuild,
		Why: "same relation at minsup 64: AlgAuto picks CC(MM); 20k cells plus the largest residual, so reads fold the residual instead of probing cells"},
	{Name: "build-stararray", run: runBuild,
		Why: "in-process facade, T=120k D=6 C=500 minsup 2: AlgAuto picks CC(StarArray); sparse high-cardinality regime"},
	{Name: "serve", run: runServe,
		Why: "one ccserve -snapshot over loopback TCP, pinned closed loop: cache-resident, cache-bypassing and aggregate phases put qcache, probe and encode in turn on the blocking path"},
	{Name: "live", run: runLive,
		Why: "one ccserve -csv -wal (write-through, fsync at shutdown): 18 mutate+refresh rounds, then reads and WAL appends on the merged store, kill -9, reboot; a read gain that costs refresh or ingest shows here"},
	{Name: "routed", run: runRouted,
		Why: "two ccserve shard workers behind a ccserve -router: forwarded and scattered reads, where Router and Dial do most of the work and none on serve"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Every workload drives the same life cycle through its own access path —
// facade calls, one TCP server, a labeled live server, a router — and so
// reports the same end-to-end metrics: the benchmark contract has every run
// print every one of them. README.md says what each is on each path, and
// which identical-code spreads the bounds were set from.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ready_s", Unit: "s", Better: "lower", Bound: 0.2},
	{Name: "rebuild_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "point_hot_qps", Unit: "1/s", Better: "higher", Bound: 0.1},
	{Name: "point_cold_qps", Unit: "1/s", Better: "higher", Bound: 0.2},
	{Name: "olap_qps", Unit: "1/s", Better: "higher", Bound: 0.2},
	{Name: "ingest_rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.15},
	{Name: "mem_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "cube_bytes_per_tuple", Unit: "B/tuple", Better: "lower", Bound: 0.01},
}

var perLayer = []metricSpec{
	{Name: "gen.synthetic_s", Unit: "s", Better: "lower"},
	{Name: "engine.compute_s", Unit: "s", Better: "lower"},
	{Name: "engine.cells", Unit: "count", Better: "lower"},
	{Name: "cubestore.build_s", Unit: "s", Better: "lower"},
	{Name: "cubestore.residual_s", Unit: "s", Better: "lower"},
	{Name: "cubestore.residual_rows", Unit: "count", Better: "lower"},
	{Name: "facade.materialize_allocs", Unit: "count", Better: "lower"},
	{Name: "facade.materialize_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "parallel.shard_s", Unit: "s", Better: "lower"},
	{Name: "parallel.speedup", Unit: "ratio", Better: "higher"},
	{Name: "cubestore.snapshot_save_s", Unit: "s", Better: "lower"},
	{Name: "cubestore.snapshot_load_s", Unit: "s", Better: "lower"},
	{Name: "cubestore.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "qcache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "qcache.hit_ratio_hot", Unit: "ratio", Better: "higher"},
	{Name: "qcache.hit_ratio_cold", Unit: "ratio", Better: "higher"},
	{Name: "cubestore.probe_us", Unit: "us", Better: "lower"},
	{Name: "cubestore.probe_groups_per_op", Unit: "count", Better: "lower"},
	{Name: "cubestore.probe_candidates_per_op", Unit: "count", Better: "lower"},
	{Name: "cubestore.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.aggregate_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "facade.query_us", Unit: "us", Better: "lower"},
	{Name: "facade.query_hot_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_point_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_olap_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.codec_point_us", Unit: "us", Better: "lower"},
	{Name: "serve.codec_olap_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.resp_bytes_olap", Unit: "B", Better: "lower"},
	{Name: "serve.handler_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "serve.http_point_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_olap_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.transport_point_us", Unit: "us", Better: "lower"},
	{Name: "serve.cpu_us_per_req_point", Unit: "us", Better: "lower"},
	{Name: "serve.cpu_ms_per_req_olap", Unit: "ms", Better: "lower"},
	{Name: "router.scatter_ms", Unit: "ms", Better: "lower"},
	{Name: "router.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "router.worker_ms", Unit: "ms", Better: "lower"},
	{Name: "router.fanout_per_req", Unit: "count", Better: "lower"},
	{Name: "router.cpu_ms_per_req_olap", Unit: "ms", Better: "lower"},
	{Name: "router.inproc_olap_ms", Unit: "ms", Better: "lower"},
	{Name: "router.overhead_point_us", Unit: "us", Better: "lower"},
	{Name: "refresh.partitions_recomputed_local", Unit: "count", Better: "lower"},
	{Name: "refresh.partitions_total", Unit: "count", Better: "lower"},
	{Name: "refresh.cells_rebuilt_local", Unit: "count", Better: "lower"},
	{Name: "refresh.cells_retained_local", Unit: "count", Better: "higher"},
	{Name: "refresh.rebuild_ratio_local", Unit: "ratio", Better: "lower"},
	{Name: "refresh.rebuild_ratio_scatter", Unit: "ratio", Better: "lower"},
	{Name: "refresh.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "refresh.wal_rewrite_ms", Unit: "ms", Better: "lower"},
	{Name: "refresh.replay_s", Unit: "s", Better: "lower"},
	{Name: "client.point_hot_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.point_cold_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.point_cold_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.olap_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.olap_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ready_median_s", Unit: "s", Better: "lower"},
	{Name: "client.segment_spread", Unit: "ratio", Better: "lower"},
	{Name: "client.point_cold_qps_c2", Unit: "1/s", Better: "higher"},
	{Name: "client.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}
