package refresh

// Process-wide refresh instrumentation, recorded into obs.Default: every
// Manager in the process shares these series (one ccserve process serves one
// cube), and the /metrics handler exposes them alongside the serving-layer
// registries. Gauges with per-Manager identity (generation, backlog) are
// registered by the serving layer against its own cube instead.

import "ccubing/internal/obs"

var (
	walAppendSeconds = obs.Default.Histogram("ccubing_wal_append_seconds",
		"Latency of appending one encoded delta batch to the WAL (write, no fsync).")
	walSyncSeconds = obs.Default.Histogram("ccubing_wal_sync_seconds",
		"Latency of an explicit WAL fsync (shutdown and snapshot barriers).")
	walRewriteSeconds = obs.Default.Histogram("ccubing_wal_rewrite_seconds",
		"Latency of the post-refresh WAL rewrite that drops the folded prefix.")
	refreshSeconds = obs.Default.Histogram("ccubing_refresh_seconds",
		"Wall-clock duration of a refresh: delta fold, partition recompute, merge and publish.")
)

// The phases of a published refresh, in order: the delta applied to the
// relation; the touched tuples selected, split and cubed; the wildcard cells
// the delta falls in, re-aggregated by deltaPass; the touched partitions'
// residual and MergePartitions; the snapshot swap and WAL rewrite. shard and
// delta are concurrent pool jobs of the decomposition (shard summed over its
// jobs), so the phases add up to ccubing_refresh_seconds only at one worker.
var (
	phaseFold    = refreshPhase("fold")
	phaseShard   = refreshPhase("shard")
	phaseDelta   = refreshPhase("delta")
	phaseMerge   = refreshPhase("merge")
	phasePublish = refreshPhase("publish")

	deltaVisits = obs.Default.Counter("ccubing_refresh_delta_visits_total",
		"Tuple reads of the refresh's wildcard delta pass: one per tuple of each cell it folds, two per tuple and dimension it splits on.")
)

func refreshPhase(name string) *obs.Histogram {
	return obs.Default.Histogram("ccubing_refresh_phase_seconds",
		"Duration of one phase of a published refresh.", "phase", name)
}
