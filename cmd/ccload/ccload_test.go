package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"ccubing"
)

func TestOrderStatistics(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		k            int
		small, large float64
	}{{1, 1, 5}, {2, 2, 4}, {5, 5, 1}, {0, 1, 5}, {9, 5, 1}} {
		if got := kthSmallest(xs, tc.k); got != tc.small {
			t.Errorf("kthSmallest(k=%d) = %g, want %g", tc.k, got, tc.small)
		}
		if got := kthLargest(xs, tc.k); got != tc.large {
			t.Errorf("kthLargest(k=%d) = %g, want %g", tc.k, got, tc.large)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("estimators reordered their input: %v", xs)
	}
	if kthSmallest(nil, 2) != 0 || kthLargest(nil, 2) != 0 || median(nil) != 0 {
		t.Error("empty samples must estimate 0")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99); got != 10 {
		t.Errorf("p99 of 1..10 = %g, want 10", got)
	}
	// One slow outlier must not move a low-order statistic.
	clean := []float64{1.00, 1.01, 1.02, 1.03}
	noisy := []float64{1.00, 1.01, 1.02, 9.99}
	if kthSmallest(clean, 2) != kthSmallest(noisy, 2) {
		t.Error("2nd-fastest moved with the slowest sample")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25], and
// quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25].
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func smallCube(t *testing.T, seed int64) (*ccubing.Dataset, *ccubing.Cube) {
	t.Helper()
	rg := regime{T: 4000, D: 5, C: 40, MinSup: 2, Measure: true}
	ds, err := relation(rg, seed)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, rg.options(1))
	if err != nil {
		t.Fatal(err)
	}
	return ds, cube
}

// requestBytes renders everything one seed generates, the way a run sends it.
func requestBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	ds, cube := smallCube(t, seed)
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	w := wire{}
	cells := sampleCells(cube, rng, 400)
	for _, q := range pointPool(cells, ds.Cardinalities(), rng, 300) {
		b.Write(w.pointHTTP(q))
	}
	for _, i := range zipfSeq(rng, 1.1, 64, 500) {
		b.WriteByte(byte(i))
	}
	for _, r := range olapPool(rowsOf(ds), ds.Cardinalities(), true, false, rng, 60) {
		b.Write(w.olapHTTP(r))
	}
	lw := wire{labeled: true}
	for _, q := range tuplePool(rowsOf(ds), rng, 100) {
		b.Write(lw.pointHTTP(q))
	}
	rounds, final := planRounds(rowsOf(ds), rng, 3)
	for _, rd := range rounds {
		for _, req := range rd.requests() {
			b.Write(req)
		}
	}
	writeCSV(&b, ds.NumDims(), final)
	return b.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := requestBytes(t, 7), requestBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("one seed generated two different request streams")
	}
	if bytes.Equal(a, requestBytes(t, 8)) {
		t.Fatal("two seeds generated the same request stream")
	}
}

func TestPoolsAgainstCacheSize(t *testing.T) {
	if hotPoolSize > queryCacheEntries {
		t.Errorf("hot pool (%d) must fit the %d-entry result cache", hotPoolSize, queryCacheEntries)
	}
	if coldPoolSize <= queryCacheEntries {
		t.Errorf("cold pool (%d) must exceed the %d-entry result cache", coldPoolSize, queryCacheEntries)
	}
	ds, cube := smallCube(t, 3)
	rng := rand.New(rand.NewSource(3))
	pool := pointPool(sampleCells(cube, rng, 500), ds.Cardinalities(), rng, 400)
	seen := map[string]bool{}
	for _, q := range pool {
		seen[cellKey(q)] = true
	}
	if len(pool) != 400 || len(seen) != 400 {
		t.Errorf("pointPool drew %d queries, %d distinct; want 400 distinct", len(pool), len(seen))
	}
	for _, i := range zipfSeq(rng, 1.1, 50, 1000) {
		if i < 0 || i >= 50 {
			t.Fatalf("zipfSeq index %d outside [0,50)", i)
		}
	}
	reqs := olapPool(rowsOf(ds), ds.Cardinalities(), true, false, rng, 40)
	slices := 0
	for _, r := range reqs {
		if r.Slice {
			slices++
			if r.Cell[0] == ccubing.Star {
				t.Errorf("slice %v leaves dimension 0 wildcard; a router cannot forward it", r.Cell)
			}
		}
	}
	if slices != len(reqs)/2 {
		t.Errorf("%d slices among %d olap requests; want half", slices, len(reqs))
	}
}

func TestRoutedPointsMix(t *testing.T) {
	ds, cube := smallCube(t, 5)
	rng := rand.New(rand.NewSource(5))
	pool := pointPool(sampleCells(cube, rng, 1000), ds.Cardinalities(), rng, 800)
	got := routedPoints(pool, 100)
	if len(got) != 100 {
		t.Fatalf("routedPoints: %d queries, want 100", len(got))
	}
	for i, q := range got {
		if scattered := q[0] == ccubing.Star; scattered != (i%4 == 3) {
			t.Errorf("query %d %v: scattered=%v; every fourth position scatters, the rest bind dimension 0", i, q, scattered)
		}
	}
}

// A scattered read is a known lower bound exactly when some shard holds a
// part of the cell below the iceberg threshold.
func TestLowerBound(t *testing.T) {
	shard := func(rows ...[]int32) *ccubing.Dataset {
		ds, err := ccubing.NewDatasetFromValues(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	shards := []*ccubing.Dataset{
		shard([]int32{0, 1, 1}, []int32{0, 1, 2}, []int32{0, 2, 2}),
		shard([]int32{1, 1, 1}, []int32{1, 2, 2}, []int32{1, 2, 2}),
	}
	star := ccubing.Star
	for _, tc := range []struct {
		q      []int32
		minsup int64
		want   bool
	}{
		{[]int32{star, 1, star}, 2, true},  // parts of 2 and 1 tuples: the second is suppressed
		{[]int32{star, 1, star}, 1, false}, // nothing is below a threshold of 1
		{[]int32{star, 2, 2}, 2, true},     // parts of 1 and 2
		{[]int32{star, 2, 2}, 3, true},     // both parts suppressed
		{[]int32{star, 3, star}, 2, false}, // no shard holds any of it
		{[]int32{star, star, 2}, 2, false}, // parts of 2 and 2
	} {
		if got := lowerBound(shards, tc.q, tc.minsup); got != tc.want {
			t.Errorf("lowerBound(%v, minsup %d) = %v, want %v", tc.q, tc.minsup, got, tc.want)
		}
	}
}

// The block estimate lets a block's 2nd-fastest repetition stand for it: one
// lucky pass is not the estimate, a disturbed pass does not move it, and a
// cost paid in all passes but one stays in.
func TestBlockEstimate(t *testing.T) {
	if blockKeep != 2 {
		t.Fatalf("the cases below are written for blockKeep = 2, it is %d", blockKeep)
	}
	r := &run{metrics: map[string]float64{}}
	tr := &track{per: 4, blocks: 2, pass: 2, op: func(int) {}}
	r.rounds(2, tr) // one pass: 2 segments of 2 blocks
	if len(tr.times) != 4 || tr.done != 8 {
		t.Fatalf("one pass left %d blocks and %d operations, want 4 and 8", len(tr.times), tr.done)
	}
	for pos := range tr.times {
		tr.times[pos] = []float64{1}
	}
	if ops, secs := tr.estimate(); ops != 8 || secs != 4 {
		t.Errorf("after one pass the estimate is %d operations in %g s, want 8 in 4 (the only repetition stands)", ops, secs)
	}
	tr.times[0] = []float64{1, 0.5, 9, 1, 1, 1} // one lucky, one disturbed
	if _, secs := tr.estimate(); secs != 4 {
		t.Errorf("a lucky and a disturbed repetition moved the estimate to %g s, want 4", secs)
	}
	tr.times[1] = []float64{3, 3, 1, 3, 3, 3} // a cost paid in all passes but one
	if _, secs := tr.estimate(); secs != 6 {
		t.Errorf("a cost paid in 5 of 6 passes left the estimate at %g s, want 6", secs)
	}
	tr.wall = 12
	if got := tr.wallOverEstimate(); got != 2 {
		t.Errorf("wall/estimate = %g, want 12 s over 6 s for the 8 operations done", got)
	}
}

// -seconds sets the number of passes, never their length, and a pass's cold
// requests outnumber the result cache on every served workload whose passes
// share a server: otherwise a pass would hit what the last one cached.
func TestPassOutrunsCache(t *testing.T) {
	for name, cold := range map[string]int{"serve": tcpPass * tcpColdPer, "live": tcpPass * liveColdPer} {
		if cold <= queryCacheEntries {
			t.Errorf("%s: a pass sends %d distinct cold requests, the result cache holds %d", name, cold, queryCacheEntries)
		}
		if cold > coldPoolSize {
			t.Errorf("%s: a pass sends %d cold requests from a pool of %d distinct ones", name, cold, coldPoolSize)
		}
	}
	if inprocPass*inprocColdPer <= queryCacheEntries {
		t.Errorf("in-process: a pass makes %d cold queries, the result cache holds %d", inprocPass*inprocColdPer, queryCacheEntries)
	}
	for _, secs := range []float64{1, 2, 7, refSeconds, 60} {
		got := passesFor(secs)
		if got < minPasses {
			t.Errorf("-seconds %g gives %d passes, the block estimate needs %d", secs, got, minPasses)
		}
		if secs == refSeconds && got != refPasses {
			t.Errorf("-seconds %d gives %d passes, want %d", refSeconds, got, refPasses)
		}
	}
	if passesFor(60) <= passesFor(refSeconds) {
		t.Error("a longer run must replay more passes")
	}
}

func TestPlanRounds(t *testing.T) {
	ds, _ := smallCube(t, 11)
	rows := rowsOf(ds)
	rounds, final := planRounds(rows, rand.New(rand.NewSource(11)), 6)
	if want := len(rows) + 6*(roundAppend-roundDelete); len(final) != want {
		t.Fatalf("final relation has %d tuples, want %d", len(final), want)
	}
	// Replay the rounds on a multiset: every tombstone must name a tuple
	// present when its round starts, and the end state must be `final`.
	have := map[string]int{}
	for _, r := range rows {
		have[cellKey(r)]++
	}
	for k, rd := range rounds {
		parts := map[int32]bool{}
		for _, r := range append(append([][]int32{}, rd.deletes...), rd.oldRows...) {
			if have[cellKey(r)] == 0 {
				t.Fatalf("round %d deletes %v, which the relation does not hold", k, r)
			}
			have[cellKey(r)]--
			parts[r[0]] = true
		}
		for _, r := range append(append([][]int32{}, rd.appends...), rd.newRows...) {
			have[cellKey(r)]++
			parts[r[0]] = true
		}
		if rd.scatter != (k%3 == 2) {
			t.Errorf("round %d scatter=%v; every third round scatters", k, rd.scatter)
		}
		if !rd.scatter && len(parts) != 2 {
			t.Errorf("local round %d touches %d partitions, want 2", k, len(parts))
		}
	}
	for _, r := range final {
		have[cellKey(r)]--
	}
	for k, n := range have {
		if n != 0 {
			t.Fatalf("replayed relation and planned final relation differ at %s by %d", k, n)
		}
	}
}

func TestParsePromText(t *testing.T) {
	const text = `# HELP ccubing_http_request_seconds HTTP request latency by endpoint.
# TYPE ccubing_http_request_seconds histogram
ccubing_http_request_seconds_bucket{endpoint="query",le="0.001"} 90
ccubing_http_request_seconds_bucket{endpoint="query",le="+Inf"} 100
ccubing_http_request_seconds_sum{endpoint="query"} 0.25
ccubing_http_request_seconds_count{endpoint="query"} 100
ccubing_http_request_seconds_sum{endpoint="slice"} 1.5
ccubing_http_request_seconds_count{endpoint="slice"} 3
ccubing_router_worker_seconds_sum{worker="0"} 2
ccubing_router_worker_seconds_sum{worker="1"} 4
ccubing_router_worker_seconds_count{worker="0"} 10
ccubing_router_worker_seconds_count{worker="1"} 10
# TYPE ccubing_cache_hits_total counter
ccubing_cache_hits_total 4242
ccubing_uptime_seconds 1.5e+01
garbage line without a value
`
	p := parsePromText(text)
	if got := p.value("ccubing_cache_hits_total"); got != 4242 {
		t.Errorf("counter = %g, want 4242", got)
	}
	if got := p.value("ccubing_uptime_seconds"); got != 15 {
		t.Errorf("exponent value = %g, want 15", got)
	}
	if s, c := p.histSum("ccubing_http_request_seconds", `endpoint="query"`), p.histCount("ccubing_http_request_seconds", `endpoint="query"`); s != 0.25 || c != 100 {
		t.Errorf("query histogram sum/count = %g/%g, want 0.25/100", s, c)
	}
	if got := p.histSum("ccubing_http_request_seconds", ""); got != 1.75 {
		t.Errorf("sum over every endpoint = %g, want 1.75", got)
	}
	if got := p.histMeanSince(promText{}, "ccubing_router_worker_seconds", ""); got != 0.3 {
		t.Errorf("mean over both workers = %g, want 0.3", got)
	}
	prev := parsePromText("ccubing_http_request_seconds_sum{endpoint=\"query\"} 0.05\nccubing_http_request_seconds_count{endpoint=\"query\"} 20\n")
	if got := p.histMeanSince(prev, "ccubing_http_request_seconds", `endpoint="query"`); math.Abs(got-0.0025) > 1e-15 {
		t.Errorf("mean since the earlier scrape = %g, want 0.0025", got)
	}
	if got := p.histMeanSince(p, "ccubing_http_request_seconds", `endpoint="query"`); got != 0 {
		t.Errorf("mean over an empty interval = %g, want 0", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// Fields 14 and 15 are utime and stime; the command may hold spaces and
	// parentheses.
	const stat = "4242 (cc serve) (x)) S 1 4242 4242 0 -1 4194560 9000 0 0 0 1234 56 0 0 20 0 7 0 100 200000000 5000 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil || got != 1290 {
		t.Errorf("parseStatCPU = %d, %v; want 1290 ticks", got, err)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 u s"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted malformed input", bad)
		}
	}
	kb, err := parseStatusKB("Name:\tccserve\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n", "VmHWM")
	if err != nil || kb != 123456 {
		t.Errorf("VmHWM = %d, %v; want 123456", kb, err)
	}
	if _, err := parseStatusKB("Name:\tccserve\n", "VmHWM"); err == nil {
		t.Error("a status without VmHWM must be an error")
	}
}

func TestCPUMask(t *testing.T) {
	m := single(70)
	m[0] = 0b101
	if got := m.last(); got != 70 {
		t.Errorf("last CPU of {0,2,70} = %d", got)
	}
	var empty cpuMask
	if empty.last() != -1 {
		t.Error("empty mask must report no CPU")
	}
}

// BENCHMARK.json restates spec.go for the driver; the two must not drift.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the repetition counts are sized for %d", bj.RunSeconds, refSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"cmd/ccload"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n spec %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n spec %+v", bj.PerLayer, perLayer)
	}
	names := map[string]bool{}
	hasSetup := false
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if names[s.Name] {
			t.Errorf("metric %s is declared twice", s.Name)
		}
		names[s.Name] = true
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
}
