// Command ccload is the repository's end-to-end + per-layer benchmark: it
// generates every input from a seed, drives one workload through its access
// path — facade calls in-process, or real ccserve processes over loopback TCP
// — verifies the answers, and prints each metric by name with its unit,
// closing with one JSON line for the benchmark driver. See README.md beside
// this file for the workloads, the metrics, and why the harness pins, runs
// closed-loop and reports low-order statistics.
//
// Usage:
//
//	go run ./cmd/ccload -workload serve -seed 23
//	go run ./cmd/ccload -workload serve -seed 23 -trace 1   # per-layer pass
//	go run ./cmd/ccload -workload all -repeat 10            # repeatability self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workDir holds everything the benchmark leaves behind (the compiled
// ccserve, per-run temp dirs, trace files); it is git-ignored.
const workDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames()+", or all (with -repeat)")
		seed     = flag.Int64("seed", 23, "seed every input is generated from")
		secs     = flag.Float64("seconds", refSeconds, "target measuring time; sets how many passes of the workload's sequence are replayed")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
		repeat   = flag.Int("repeat", 0, "self-check: run the workload this many times on consecutive seeds and hold each end-to-end spread to its bound")
	)
	flag.Parse()
	if *secs < 1 || *secs > 60 {
		die("-seconds %g out of range [1,60]", *secs)
	}
	if *trace != 0 && *trace != 1 {
		die("-trace wants 0 or 1")
	}
	var wls []*workloadSpec
	if *workload == "all" && *repeat > 0 {
		for i := range workloads {
			wls = append(wls, &workloads[i])
		}
	} else if wl := findWorkload(*workload); wl != nil {
		wls = append(wls, wl)
	} else {
		die("unknown -workload %q (want %s)", *workload, workloadNames())
	}

	// Children die with the harness on every exit path: normal return and
	// die() run killAll, and a signal lands here.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAll()
		os.Exit(130)
	}()

	bin, err := buildServer()
	if err != nil {
		die("%v", err)
	}
	printEnv()

	if *repeat > 0 {
		ok := true
		for _, wl := range wls {
			ok = selfCheck(wl, *seed, *secs, *repeat) && ok
		}
		killAll()
		if !ok {
			os.Exit(1)
		}
		return
	}

	res := execute(wls[0], bin, *seed, *secs, *trace == 1)
	killAll()
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func die(format string, args ...any) {
	killAll()
	fmt.Fprintf(os.Stderr, "ccload: "+format+"\n", args...)
	os.Exit(2)
}

// printEnv records what the numbers were taken on.
func printEnv() {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Printf("# env go=%s os=%s/%s nproc=%d gomaxprocs=%d commit=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), rev)
}

// ---- one run ----------------------------------------------------------

// run is the state of one workload execution.
type run struct {
	wl     *workloadSpec
	seed   int64
	passes int // replays of every track's sequence, from -seconds
	trace  bool
	bin    string // compiled ccserve
	dir    string // this run's temp dir

	start   time.Time
	metrics map[string]float64
	// attempted counts measured operations (requests, builds, boots, verified
	// samples); failed counts non-200 answers and verification mismatches.
	attempted, failed int64
	complaints        int
	spans             spanLog
}

// passesFor turns -seconds into the number of passes. Only the number of
// repetitions follows the measuring time: the length of a pass — what the
// cache-state arguments of the workloads rest on — never changes. Below
// minPasses the block estimate has nothing to choose from, so short runs
// measure longer than asked.
func passesFor(secs float64) int {
	return max(minPasses, int(secs/refSeconds*refPasses+0.5))
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// ready closes the set-up phase: everything before it — generation,
// in-process materialization and saving, oracle answers, first boots and
// warm-up — is setup_s; everything after is measured.
func (r *run) ready() { r.set("setup_s", time.Since(r.start).Seconds()) }

// quietGC switches the harness's own collector off and returns the switch
// back on. The TCP workloads measure with it off: the harness holds the
// relation and the oracle cube, and one mark phase over that heap on the CPU
// it shares with the server costs a quarter of a segment. What a run
// allocates meanwhile (response parsing) is a few hundred MB.
func quietGC() (restore func()) {
	runtime.GC()
	prev := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(prev) }
}

// fail counts a failed operation and logs the first few.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.complaints++; r.complaints <= 10 {
		fmt.Fprintf(os.Stderr, "ccload: FAIL "+format+"\n", args...)
	}
}

// check counts one verified operation and fails it unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// result is the driver-facing outcome of one run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload in a fresh temp dir with fresh processes and
// folds its metrics into the contract's shape: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one (0 for a layer the
// workload does not touch).
func execute(wl *workloadSpec, bin string, seed int64, secs float64, trace bool) result {
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		die("%v", err)
	}
	defer os.RemoveAll(dir)
	r := &run{wl: wl, seed: seed, passes: passesFor(secs), trace: trace, bin: bin, dir: dir,
		metrics: map[string]float64{}, start: time.Now()}
	fmt.Printf("# workload=%s seed=%d seconds=%g passes=%d trace=%v\n", wl.Name, seed, secs, r.passes, trace)
	// Pinned from the first instruction of the set-up: left to the scheduler,
	// the harness's own collector ran on the noisy first CPU and set-up times
	// of identical runs ranged 1.0-1.43 s.
	if err = pinSelf(); err == nil {
		err = wl.run(r)
	}
	killAll()
	unpinSelf()
	if err != nil {
		die("%s: %v", wl.Name, err)
	}
	specs := endToEnd
	if trace {
		specs = perLayer
		if err := r.spans.write(filepath.Join(workDir, "trace-"+wl.Name+".json")); err != nil {
			die("%v", err)
		}
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := r.metrics[s.Name]
		if !ok && !trace {
			die("%s: end-to-end metric %s was not measured", wl.Name, s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range r.metrics {
		if _, ok := res.Metrics[name]; !ok && !otherPass(name, trace) {
			die("%s: metric %s is not declared in spec.go", wl.Name, name)
		}
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	return res
}

// otherPass reports a metric that belongs to the pass not being reported
// (a traced run also measures setup_s and the like on its way).
func otherPass(name string, trace bool) bool {
	specs := perLayer
	if trace {
		specs = endToEnd
	}
	for _, s := range specs {
		if s.Name == name {
			return true
		}
	}
	return false
}

// print writes the metric table, then the contract's closing JSON line.
func (res result) print(w *os.File) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "operations attempted=%d failed=%d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		die("%v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
