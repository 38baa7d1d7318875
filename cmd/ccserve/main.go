// Command ccserve materializes a closed cube and serves point and slice
// queries over HTTP: the serving layer the closed cube's lossless-compression
// property makes possible — any cell's count is answered from the closed
// cells, no base-relation rescan.
//
// Usage:
//
//	ccserve -csv data.csv -minsup 10 -addr :8080
//	ccserve -synth T=100000,D=6,C=50,S=1,seed=1 -minsup 4 -workers -1
//	ccserve -snapshot cube.ccube -addr :8080
//	ccserve -csv data.csv -refresh-rows 1000 -refresh-interval 30s -wal delta.wal
//
//	ccserve -csv data.csv -shard 0/2 -addr :8081     # shard worker 0 of 2
//	ccserve -csv data.csv -shard 1/2 -addr :8082     # shard worker 1 of 2
//	ccserve -router localhost:8081,localhost:8082    # scatter-gather front
//
// Endpoints (JSON):
//
//	GET  /healthz
//	GET  /v1/cube                       cube metadata
//	GET  /v1/query?cell=a,*,b           point query ("*" = wildcard)
//	POST /v1/query  {"cell": ["a","*","b"]} or {"values": [3,-1,7]}
//	GET  /v1/slice?cell=a,*,*&limit=50  closed cells inside a sub-cube
//	POST /v1/slice  {"cell": [...], "limit": 50}
//	GET  /v1/aggregate                  predicate group-by / top-k
//	POST /v1/append                     buffer rows for refresh (JSON or NDJSON)
//	POST /v1/delete                     buffer tombstones (same shapes)
//	POST /v1/update                     buffer atomic delete+append pairs
//	POST /v1/refresh                    fold the delta in (partition-scoped)
//	POST /v1/reload                     warm snapshot reload (workers only)
//	GET  /v1/stats                      generation, backlog, latency, counters
//	GET  /v1/health                     role, shard slot, generation, uptime
//	GET  /metrics                       Prometheus text exposition
//
// Every request gets an X-CCubing-Request-ID (inbound values are honored and
// a router forwards them to its workers); -slow-query logs one structured
// line — ID, endpoint, spec, per-stage timings — for requests slower than
// the threshold.
//
// Cubes built from data (-csv/-synth/-weather) are live: /v1/append buffers
// tuples, /v1/delete and /v1/update buffer tombstones and replacements, and
// /v1/refresh (or -refresh-rows / -refresh-interval) folds them in by
// recomputing only the touched leading-dimension partitions and swapping
// the store atomically. -rate bounds the mutating endpoints to that many
// requests per second (token bucket; over-budget calls get 429 with
// Retry-After).
//
// -shard i/n keeps only the tuples whose leading-dimension component hashes
// to slot i of n before materializing — n such workers together hold the
// whole relation, each answering dimension-0-bound queries with globally
// correct counts and closures. -router fronts them with the identical API,
// routing bound queries to their owner and scatter-gathering the rest; it
// takes no data source of its own.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to 10 seconds, then closes the cube — which syncs any
// write-ahead log, so mutations buffered but not yet refreshed survive a
// restart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ccubing"
	"ccubing/internal/algs"
	"ccubing/internal/serve"
)

// serveProcs gives a single-node server confined to one CPU a second P. With
// a single P the runtime's monitor thread retakes the P from every network
// syscall the kernel preempts — on a loopback connection the peer runs on the
// same CPU, inside the server's write — and hands it to another thread, so
// each request pays thread hand-offs; that state lasts until a CPU-bound
// request of ten milliseconds or more lets the monitor back off, which made
// point latency depend on how slow the neighbouring aggregates were. With an
// idle P around, the monitor leaves short syscalls alone. The processes of a
// sharded topology keep the default: there the extra threads of every worker
// and the router cost more on a shared CPU than the hand-offs do (ccload's
// routed point tracks lose 4-6 % with it, serve and live gain 8-30 %). An
// explicit GOMAXPROCS is respected.
func serveProcs() {
	if os.Getenv("GOMAXPROCS") == "" && runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		csvPath  = flag.String("csv", "", "CSV input file (header row = dimension names)")
		synth    = flag.String("synth", "", "synthetic dataset spec: T=..,D=..,C=..,S=..,seed=..")
		weather  = flag.String("weather", "", "weather-like dataset: tuples,dims (e.g. 100000,8)")
		snapshot = flag.String("snapshot", "", "load a cube snapshot written by ccube -store instead of computing")
		algName  = flag.String("alg", "auto", "algorithm: "+algs.Usage(true))
		minsup   = flag.Int64("minsup", 1, "iceberg threshold on count")
		workers  = flag.Int("workers", 1, "engine goroutines (0/1 = sequential, n>1 = n workers, negative = all CPU cores)")

		shardSpec = flag.String("shard", "", "serve one shard of an n-way topology: index/count (e.g. 0/2); applies to -csv/-synth/-weather builds")
		routerTo  = flag.String("router", "", "comma-separated shard worker base URLs; serve as a scatter-gather router instead of a cube")

		refreshRows  = flag.Int("refresh-rows", 0, "auto-refresh when the delta backlog reaches this many rows (0 = off)")
		refreshEvery = flag.Duration("refresh-interval", 0, "auto-refresh on this period (0 = off)")
		walPath      = flag.String("wal", "", "write-ahead log for pending (unrefreshed) delta rows; refreshed rows persist only via snapshots")
		rate         = flag.Float64("rate", 0, "token-bucket limit on mutating endpoints (append/delete/update/refresh/reload), requests per second (0 = unlimited)")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")
		cacheSize    = flag.Int("query-cache", ccubing.DefaultQueryCacheEntries, "query-result cache capacity in entries (0 = disabled)")
		slowQuery    = flag.Duration("slow-query", 0, "log a structured line (request ID, endpoint, spec, stage timings) for requests slower than this (0 = off)")
	)
	flag.Parse()
	if *rate < 0 {
		fatal(fmt.Errorf("negative -rate %g", *rate))
	}
	if *slowQuery < 0 {
		fatal(fmt.Errorf("negative -slow-query %s", *slowQuery))
	}
	logStartup(*addr, *rate, *slowQuery, *cacheSize)

	var shard serve.Shard
	var local *serve.Local
	if *routerTo != "" {
		if *csvPath != "" || *synth != "" || *weather != "" || *snapshot != "" || *shardSpec != "" {
			fatal(errors.New("-router takes no data source: the shard workers hold the cubes"))
		}
		if *refreshRows > 0 || *refreshEvery > 0 || *walPath != "" {
			fatal(errors.New("-refresh-rows/-refresh-interval/-wal belong on the shard workers, not the router"))
		}
		var workers []serve.Shard
		for _, u := range strings.Split(*routerTo, ",") {
			w, err := serve.Dial(strings.TrimSpace(u))
			if err != nil {
				fatal(err)
			}
			workers = append(workers, w)
		}
		router, err := serve.NewRouter(workers)
		if err != nil {
			fatal(err)
		}
		meta, err := router.Meta()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ccserve: routing over %d shards (%d closed cells, %d dims, minsup=%d, generation=%d) on %s\n",
			len(workers), meta.Cells, meta.Dims, meta.MinSup, meta.Generation, *addr)
		shard = router
	} else {
		shardIdx, shardCnt, err := parseShardSpec(*shardSpec)
		if err != nil {
			fatal(err)
		}
		cube, err := buildCube(*snapshot, *csvPath, *synth, *weather, *algName, *minsup, *workers, shardIdx, shardCnt)
		if err != nil {
			fatal(err)
		}
		if *refreshRows > 0 || *refreshEvery > 0 || *walPath != "" {
			if !cube.Refreshable() {
				fatal(errors.New("-refresh-rows/-refresh-interval/-wal need a cube built from data (-csv/-synth/-weather), not -snapshot"))
			}
			if err := cube.AutoRefresh(ccubing.AutoRefreshOptions{
				Rows:     *refreshRows,
				Interval: *refreshEvery,
				WAL:      *walPath,
			}); err != nil {
				fatal(err)
			}
		}
		if *cacheSize != ccubing.DefaultQueryCacheEntries {
			cube.SetQueryCache(*cacheSize)
		}
		local = serve.NewLocal(cube)
		local.SetSnapshot(*snapshot)
		if shardCnt > 0 {
			local.SetShard(shardIdx, shardCnt)
			fmt.Fprintf(os.Stderr, "ccserve: serving shard %d/%d\n", shardIdx, shardCnt)
		}
		fmt.Fprintf(os.Stderr, "ccserve: serving %d closed cells (%d dims, %d cuboids, minsup=%d, generation=%d) on %s\n",
			cube.NumCells(), cube.NumDims(), cube.NumCuboids(), cube.MinSup(), cube.Generation(), *addr)
		shard = local
	}

	if *routerTo == "" && *shardSpec == "" {
		serveProcs() // once the cube is built or loaded: the boot itself is CPU-bound
	}
	server := serve.NewServer(shard, serve.Config{Rate: *rate, SlowQuery: *slowQuery})
	if *pprofOn {
		server.EnablePprof()
		fmt.Fprintf(os.Stderr, "ccserve: pprof enabled at http://%s/debug/pprof/\n", *addr)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "ccserve: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fatal(err)
		}
		// Drain complete: no more mutations can arrive. Close the serving cube
		// (via Local, which tracks reloads) so the WAL syncs any still-buffered
		// delta rows to disk before the process exits.
		if local != nil {
			if backlog := local.Cube().Backlog(); backlog > 0 {
				fmt.Fprintf(os.Stderr, "ccserve: flushing %d pending delta rows\n", backlog)
			}
			if err := local.Cube().Close(); err != nil {
				fatal(err)
			}
		}
	}
}

// logStartup records what binary is running and the effective transport
// config, so an operator reading the log of a long-lived server knows what
// it was started as without inspecting the process.
func logStartup(addr string, rate float64, slowQuery time.Duration, cacheSize int) {
	version, vcs := "(devel)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			vcs = " rev=" + rev + modified
		}
	}
	fmt.Fprintf(os.Stderr, "ccserve: build version=%s%s %s %s/%s\n",
		version, vcs, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(os.Stderr, "ccserve: config addr=%s rate=%g slow-query=%s query-cache=%d\n",
		addr, rate, slowQuery, cacheSize)
}

// parseShardSpec parses -shard "index/count"; empty means single mode
// (returns count 0).
func parseShardSpec(spec string) (index, count int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	parts := strings.Split(spec, "/")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-shard wants index/count (e.g. 0/2), got %q", spec)
	}
	index, err1 := strconv.Atoi(parts[0])
	count, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("-shard wants index in [0,count), got %q", spec)
	}
	return index, count, nil
}

// buildCube loads a snapshot or materializes a cube from one dataset source,
// optionally keeping only one leading-dimension shard of the relation.
// Snapshots are served as-is — save per-shard snapshots from shard workers
// to restart a sharded topology from disk.
func buildCube(snapshot, csvPath, synth, weather, algName string, minsup int64, workers, shardIdx, shardCnt int) (*ccubing.Cube, error) {
	switch data := csvPath + synth + weather; {
	case snapshot != "" && data == "":
		return ccubing.LoadCubeFile(snapshot)
	case snapshot != "" || data == "":
		return nil, errors.New("exactly one of -snapshot, -csv, -synth, -weather is required")
	}
	ds, err := ccubing.OpenDataset(csvPath, synth, weather)
	if err != nil {
		return nil, err
	}
	if shardCnt > 0 {
		if ds, err = ds.Shard(0, shardIdx, shardCnt); err != nil {
			return nil, err
		}
	}
	alg, err := ccubing.ParseAlgorithm(algName)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cube, err := ccubing.Materialize(ds, ccubing.Options{
		MinSup:    minsup,
		Algorithm: alg,
		Workers:   workers,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "ccserve: materialized with %s in %s\n", cube.Algorithm(), time.Since(start).Round(time.Millisecond))
	return cube, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccserve:", err)
	os.Exit(1)
}
