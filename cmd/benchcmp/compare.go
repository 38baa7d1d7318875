package main

import (
	"fmt"
	"io"
	"sort"
)

// compareConfig carries the gate policy of one comparison run.
type compareConfig struct {
	// tolerance is the allowed relative allocs/op (and B/op) regression on
	// gated benchmarks.
	tolerance float64
	// gate names the critical benchmarks, judged on allocs/op: the half of a
	// benchmark that is deterministic at the 3 iterations the series records.
	gate map[string]bool
	// mem names the gated benchmarks judged on B/op too. Not all are: a
	// snapshot load's B/op is the snapshot's size, which moves with the
	// benchmark's dataset.
	mem map[string]bool
	// newPath labels the fresh file in missing-benchmark messages.
	newPath string
}

// compare prints the old-vs-new table for every benchmark present on both
// sides and applies the gate policy to the critical set, returning the
// regressions that fail the run. It is the whole comparison pass of the
// command, separated from flag parsing and process exit so the gate semantics
// are unit-testable.
func compare(w io.Writer, fresh, ref map[string]bench, cfg compareConfig) (failures []string) {
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		if _, ok := ref[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-55s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs")
	for _, name := range names {
		old, now := ref[name], fresh[name]
		mark := " "
		if cfg.gate[name] {
			mark = "*"
			// The absolute floor matters on near-zero-alloc benchmarks:
			// identical code measures 3-5 allocs/op run to run when fixed
			// setup costs amortize over a 3-iteration window, so only an
			// increase beyond that flutter is a real regression.
			if adelta := rel(old.AllocsPerOp, now.AllocsPerOp); adelta > cfg.tolerance && now.AllocsPerOp > old.AllocsPerOp+2 {
				failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f -> %.0f (%+.1f%%, tolerance %.0f%%)",
					name, old.AllocsPerOp, now.AllocsPerOp, 100*adelta, 100*cfg.tolerance))
			}
			if bdelta := rel(old.BytesPerOp, now.BytesPerOp); cfg.mem[name] && bdelta > cfg.tolerance {
				failures = append(failures, fmt.Sprintf("%s: B/op %.0f -> %.0f (%+.1f%%, tolerance %.0f%%)",
					name, old.BytesPerOp, now.BytesPerOp, 100*bdelta, 100*cfg.tolerance))
			}
		}
		fmt.Fprintf(w, "%s%-54s %14.0f %14.0f %+7.1f%% %4.0f→%-4.0f\n",
			mark, name, old.NsPerOp, now.NsPerOp, 100*rel(old.NsPerOp, now.NsPerOp), old.AllocsPerOp, now.AllocsPerOp)
	}
	for _, name := range sortedKeys(cfg.gate) {
		if _, ok := fresh[name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: critical benchmark missing from %s", name, cfg.newPath))
		}
	}
	return failures
}
