// Command benchcmp compares a freshly recorded benchmark JSON (the
// scripts/bench.sh schema) against one or more committed BENCH_*.json
// baselines and fails when a critical benchmark regressed beyond tolerance.
// It is the CI regression gate behind the perf series:
//
//	go run ./cmd/benchcmp -new BENCH_2026-08-08.json BENCH_2026-07-29.json BENCH_2026-07-29.2.json
//
// For every benchmark present in both sides it prints old vs new ns/op and
// allocs/op with the relative change. The reference value is the
// per-benchmark median across all baselines: the series is recorded at 3
// iterations, where µs-scale benchmarks inside the full suite flutter 2×
// on GC interference, so neither the best nor the latest run alone is a
// trustworthy bar. Names are normalized by stripping the -N GOMAXPROCS
// suffix go test appends on multi-core machines, so series recorded on
// different core counts still line up.
//
// Only the critical set gates (default: the serving-path benchmarks and the
// incremental refresh named in -critical); everything else is informational,
// since dataset growth and intentional trade-offs legitimately move
// non-critical numbers. A critical benchmark is judged on allocs/op, which is
// deterministic at 3 iterations; ns/op is a printed column only — it flutters
// there, crosses a socket on some benchmarks and is the box's memory
// bandwidth on the snapshot loads, and the end-to-end harness (cmd/ccload) is
// what judges wall clock. A name suffixed ":mem" gates on B/op too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

type benchFile struct {
	Date       string  `json:"date"`
	Go         string  `json:"go"`
	CPUs       int     `json:"cpus"`
	Seed       int64   `json:"seed"`
	Benchmarks []bench `json:"benchmarks"`
}

type bench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// gomaxprocsSuffix is the "-8" style suffix go test appends to benchmark
// names when GOMAXPROCS > 1; single-core series have none.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func normalize(name string) string {
	stripped := gomaxprocsSuffix.ReplaceAllString(name, "")
	// Sub-benchmark labels like "workers=-1" also end in -N; the GOMAXPROCS
	// suffix never directly follows '=', so such names keep their tail.
	if strings.HasSuffix(stripped, "=") {
		return name
	}
	return stripped
}

func load(path string) (map[string]bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]bench, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		out[normalize(b.Name)] = b
	}
	return out, nil
}

func main() {
	newPath := flag.String("new", "", "freshly recorded bench JSON (required)")
	tolerance := flag.Float64("tolerance", 0.20, "allowed relative regression on critical benchmarks")
	critical := flag.String("critical",
		"BenchmarkCubeQuery/sequential,BenchmarkLookupLattice,BenchmarkRefreshAppend,"+
			"BenchmarkAggregateIcebergResidual/range,BenchmarkAggregateIcebergResidual/set,"+
			"BenchmarkRefresh/incremental/delta=2000,"+
			"BenchmarkRouterAggregate/tcp/dim0:mem,BenchmarkRouterAggregate/tcp/spread:mem,"+
			"BenchmarkCubeSnapshot/load,BenchmarkCubeSnapshot/loadfile",
		"comma-separated benchmarks whose allocs/op regression fails the run (name:mem gates B/op too)")
	flag.Parse()
	if *newPath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp -new NEW.json BASELINE.json [BASELINE.json ...]")
		os.Exit(2)
	}

	fresh, err := load(*newPath)
	if err != nil {
		fatal(err)
	}
	// Reference = per-benchmark median across every baseline file (of ns/op
	// and allocs/op independently, each over the runs that recorded it).
	samples := map[string][]bench{}
	for _, path := range flag.Args() {
		base, err := load(path)
		if err != nil {
			fatal(err)
		}
		for name, b := range base {
			samples[name] = append(samples[name], b)
		}
	}
	ref := map[string]bench{}
	for name, runs := range samples {
		ref[name] = bench{
			Name:        name,
			NsPerOp:     median(runs, func(b bench) float64 { return b.NsPerOp }),
			BytesPerOp:  median(runs, func(b bench) float64 { return b.BytesPerOp }),
			AllocsPerOp: median(runs, func(b bench) float64 { return b.AllocsPerOp }),
		}
	}

	gate, mem := map[string]bool{}, map[string]bool{}
	for _, name := range strings.Split(*critical, ",") {
		if name = strings.TrimSpace(name); name != "" {
			name, isMem := strings.CutSuffix(name, ":mem")
			gate[name], mem[name] = true, isMem
		}
	}

	failures := compare(os.Stdout, fresh, ref, compareConfig{tolerance: *tolerance, gate: gate, mem: mem, newPath: *newPath})
	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "\nbenchcmp: critical regressions:")
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchcmp: critical benchmarks within tolerance")
}

// median of one metric across recorded runs (mean of the middle pair for an
// even count).
func median(runs []bench, metric func(bench) float64) float64 {
	vals := make([]float64, len(runs))
	for i, b := range runs {
		vals[i] = metric(b)
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// rel is (new-old)/old; 0 when the reference is 0 (nothing to regress from).
func rel(old, now float64) float64 {
	if old == 0 {
		return 0
	}
	return (now - old) / old
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}
