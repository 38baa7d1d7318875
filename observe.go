package ccubing

// Process-wide query-path instrumentation, recorded into obs.Default. The
// histograms time the two stages every point query resolves through — the
// result-cache hit or the covering probe of the closed store — and the
// counter funcs bridge cubestore's striped probe and aggregate totals into
// the exposition without cubestore importing obs (the store stays a pure
// index).

import (
	"ccubing/internal/cubestore"
	"ccubing/internal/obs"
)

var (
	probeSeconds = obs.Default.Histogram("ccubing_probe_seconds",
		"Latency of covering probes against the closed store (point queries that miss or bypass the result cache).")
	cacheHitSeconds = obs.Default.Histogram("ccubing_cache_hit_seconds",
		"Latency of point queries answered from the query-result cache.")
)

func init() {
	obs.Default.CounterFunc("ccubing_probe_ops_total",
		"Point-lookup operations (Query/Lookup) against any closed store in this process.",
		func() int64 { ops, _, _ := cubestore.ProbeTotals(); return ops })
	obs.Default.CounterFunc("ccubing_probe_groups_total",
		"Covering cuboid groups probed; divided by ccubing_probe_ops_total this is the mean probe depth.",
		func() int64 { _, groups, _ := cubestore.ProbeTotals(); return groups })
	obs.Default.CounterFunc("ccubing_probe_candidates_total",
		"Candidate-list entries scanned by the cuboid-lattice index; per op this is the mean candidate list length.",
		func() int64 { _, _, cands := cubestore.ProbeTotals(); return cands })
	obs.Default.CounterFunc("ccubing_aggregate_runs_total",
		"Aggregate calls that ran the accumulate pass against any closed store in this process.",
		func() int64 { return cubestore.AggregateTotals().Aggregates })
	obs.Default.CounterFunc("ccubing_aggregate_combinations_total",
		"Group-by combinations resolved to their closure from stored cells.",
		func() int64 { return cubestore.AggregateTotals().Combinations })
	obs.Default.CounterFunc("ccubing_aggregate_residual_examined_total",
		"Residual rows that survived an aggregate's predicates; per run this is selectivity times residual rows.",
		func() int64 { return cubestore.AggregateTotals().ResidualExamined })
	obs.Default.CounterFunc("ccubing_aggregate_residual_folded_total",
		"Residual rows folded into a group: tuples of combinations no stored cell covers.",
		func() int64 { return cubestore.AggregateTotals().ResidualFolded })
}
