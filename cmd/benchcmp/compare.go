package main

import (
	"fmt"
	"io"
	"regexp"
	"sort"
)

// compareConfig carries the gate policy of one comparison run.
type compareConfig struct {
	// tolerance is the allowed relative ns/op (and allocs/op) regression on
	// gated benchmarks.
	tolerance float64
	// minIters is the iteration floor: a gated regression measured from fewer
	// fresh-run iterations than this downgrades to a warning, because
	// few-iteration numbers inside the full suite flutter on GC interference
	// and fixed setup costs. 0 disables the floor.
	minIters int64
	// gate names the critical benchmarks whose regressions fail the run.
	gate map[string]bool
	// memOnly names the gated benchmarks judged on allocs/op and B/op alone:
	// their wall clock crosses a socket, their allocation does not flutter.
	memOnly map[string]bool
	// allocsOnly names those judged on allocs/op alone: a snapshot load's
	// B/op is the snapshot's size, which moves with the benchmark's dataset.
	allocsOnly map[string]bool
	// newPath labels the fresh file in missing-benchmark messages.
	newPath string
}

// compareResult splits gate outcomes: failures exit non-zero, warnings are
// advisory (below-floor measurements that need a standalone rerun to trust).
type compareResult struct {
	failures []string
	warnings []string
}

// compare prints the old-vs-new table for every benchmark present on both
// sides and applies the gate policy to the critical set. It is the whole
// comparison pass of the command, separated from flag parsing and process
// exit so the gate semantics are unit-testable.
func compare(w io.Writer, fresh, ref map[string]bench, cfg compareConfig) compareResult {
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		if _, ok := ref[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var res compareResult
	fmt.Fprintf(w, "%-55s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs")
	for _, name := range names {
		old, now := ref[name], fresh[name]
		delta := rel(old.NsPerOp, now.NsPerOp)
		adelta := rel(old.AllocsPerOp, now.AllocsPerOp)
		mark := " "
		if cfg.gate[name] {
			mark = "*"
			if delta > cfg.tolerance && !cfg.memOnly[name] && !cfg.allocsOnly[name] {
				res.add(name, now, cfg, fmt.Sprintf("%s: ns/op %.0f -> %.0f (%+.1f%%, tolerance %.0f%%)",
					name, old.NsPerOp, now.NsPerOp, 100*delta, 100*cfg.tolerance))
			}
			// The absolute floor matters on near-zero-alloc benchmarks:
			// identical code measures 3-5 allocs/op run to run when fixed
			// setup costs amortize over a 3-iteration window, so only an
			// increase beyond that flutter is a real regression.
			if adelta > cfg.tolerance && now.AllocsPerOp > old.AllocsPerOp+2 {
				res.add(name, now, cfg, fmt.Sprintf("%s: allocs/op %.0f -> %.0f (%+.1f%%, tolerance %.0f%%)",
					name, old.AllocsPerOp, now.AllocsPerOp, 100*adelta, 100*cfg.tolerance))
			}
			if bdelta := rel(old.BytesPerOp, now.BytesPerOp); cfg.memOnly[name] && bdelta > cfg.tolerance {
				res.add(name, now, cfg, fmt.Sprintf("%s: B/op %.0f -> %.0f (%+.1f%%, tolerance %.0f%%)",
					name, old.BytesPerOp, now.BytesPerOp, 100*bdelta, 100*cfg.tolerance))
			}
		}
		fmt.Fprintf(w, "%s%-54s %14.0f %14.0f %+7.1f%% %4.0f→%-4.0f\n",
			mark, name, old.NsPerOp, now.NsPerOp, 100*delta, old.AllocsPerOp, now.AllocsPerOp)
	}
	for _, name := range sortedKeys(cfg.gate) {
		if _, ok := fresh[name]; !ok {
			res.failures = append(res.failures,
				fmt.Sprintf("%s: critical benchmark missing from %s", name, cfg.newPath))
		}
	}
	return res
}

// add records one gated regression, downgrading it to a warning when the
// fresh run sat below the iteration floor: a handful of iterations inside
// the full suite is not a trustworthy measurement, so the finding asks for a
// standalone rerun instead of failing CI.
func (r *compareResult) add(name string, now bench, cfg compareConfig, msg string) {
	if cfg.minIters > 0 && now.Iterations < cfg.minIters {
		r.warnings = append(r.warnings, fmt.Sprintf(
			"%s [measured over %d iterations, below the floor of %d; rerun standalone: go test -run=^$ -bench='^%s$' -benchtime=10x]",
			msg, now.Iterations, cfg.minIters, regexp.QuoteMeta(name)))
		return
	}
	r.failures = append(r.failures, msg)
}
