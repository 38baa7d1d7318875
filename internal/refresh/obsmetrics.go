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
		"Wall-clock duration of a refresh: delta fold, delta pass, merge and publish.")
)

// The phases of a published refresh, one after another: the delta applied to the relation; the cells and
// residual rows the delta falls in, re-aggregated by deltaPass; MergeDelta;
// the snapshot swap and WAL rewrite.
var (
	phaseFold    = refreshPhase("fold")
	phaseDelta   = refreshPhase("delta")
	phaseMerge   = refreshPhase("merge")
	phasePublish = refreshPhase("publish")

	deltaVisits = obs.Default.Counter("ccubing_refresh_delta_visits_total",
		"Tuple reads of the refresh's delta pass: one per tuple of each cell it folds, two per tuple and dimension it splits on.")
)

func refreshPhase(name string) *obs.Histogram {
	return obs.Default.Histogram("ccubing_refresh_phase_seconds",
		"Duration of one phase of a published refresh.", "phase", name)
}
