package serve

// Unit tests for the scatter-gather router over in-process shard workers:
// topology validation, route-vs-scatter decisions, merge semantics, mutation
// splitting, and the partial-failure contract.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ccubing"
	"ccubing/internal/obs"
	"ccubing/internal/route"
)

// routerDataset builds a labeled relation over 8 cities whose dimension-0
// owners cover every shard for n ∈ {1, 2, 4} (verified against route.Owner:
// paris→0, tokyo→1, oslo→2, cairo→3 at n=4). City i contributes i+1 tuples,
// so per-city counts are distinct and rankings deterministic.
func routerDataset(t *testing.T) *ccubing.Dataset {
	t.Helper()
	cities := []string{"oslo", "paris", "rome", "lima", "cairo", "tokyo", "sydney", "quito"}
	prods := []string{"pen", "ink"}
	years := []string{"2024", "2025"}
	var rows [][]string
	for i, city := range cities {
		for j := 0; j <= i; j++ {
			rows = append(rows, []string{city, prods[j%2], years[(i+j)%2]})
		}
	}
	ds, err := ccubing.NewDataset([]string{"city", "product", "year"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// shardedLocals splits ds by dimension-0 ownership into n in-process workers.
func shardedLocals(t *testing.T, ds *ccubing.Dataset, minsup int64, n int) []Shard {
	t.Helper()
	shards := make([]Shard, n)
	for i := range shards {
		sub, err := ds.Shard(0, i, n)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		cube, err := ccubing.Materialize(sub, ccubing.Options{MinSup: minsup})
		if err != nil {
			t.Fatal(err)
		}
		l := NewLocal(cube)
		l.SetShard(i, n)
		shards[i] = l
	}
	return shards
}

func newTestRouter(t *testing.T, ds *ccubing.Dataset, minsup int64, n int) *Router {
	t.Helper()
	rt, err := NewRouter(shardedLocals(t, ds, minsup, n))
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// globalLocal serves the unsharded relation — the reference answers.
func globalLocal(t *testing.T, ds *ccubing.Dataset, minsup int64) *Local {
	t.Helper()
	cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: minsup})
	if err != nil {
		t.Fatal(err)
	}
	return NewLocal(cube)
}

// TestNewRouterValidation pins topology-mismatch rejection.
func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(nil); err == nil {
		t.Fatal("empty shard list must fail")
	}
	ds := routerDataset(t)
	shards := shardedLocals(t, ds, 1, 2)

	// A worker at a different iceberg threshold cannot merge.
	sub, err := ds.Shard(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cube2, err := ccubing.Materialize(sub, ccubing.Options{MinSup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter([]Shard{shards[0], NewLocal(cube2)}); err == nil || !strings.Contains(err.Error(), "minsup") {
		t.Fatalf("minsup mismatch: %v", err)
	}

	// A coded worker next to a labeled one cannot merge.
	coded, err := ccubing.Synthetic(ccubing.SyntheticConfig{T: 100, D: 3, C: 4, Skew: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	codedCube, err := ccubing.Materialize(coded, ccubing.Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter([]Shard{shards[0], NewLocal(codedCube)}); err == nil {
		t.Fatal("labeled/coded mismatch must fail")
	}

	// Different dimension names cannot merge.
	other, err := ccubing.NewDataset([]string{"a", "b", "c"}, [][]string{{"x", "y", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	otherCube, err := ccubing.Materialize(other, ccubing.Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter([]Shard{shards[0], NewLocal(otherCube)}); err == nil || !strings.Contains(err.Error(), "dimensions") {
		t.Fatalf("dimension mismatch: %v", err)
	}
}

// TestRouterQuery checks routed and scattered point queries agree with the
// unsharded store, closure merge included.
func TestRouterQuery(t *testing.T) {
	ds := routerDataset(t)
	global := globalLocal(t, ds, 1)
	for _, n := range []int{1, 2, 4} {
		rt := newTestRouter(t, ds, 1, n)
		for _, cell := range [][]string{
			{"oslo", "*", "*"}, // routed: single-tuple city, closure fully bound
			{"cairo", "pen", "*"},
			{"*", "pen", "*"}, // scattered: every shard holds pens
			{"*", "*", "2024"},
			{"*", "ink", "2025"},
			{"*", "*", "*"},
			{"quito", "*", "2024"},
			{"atlantis", "*", "*"}, // routed miss
			{"*", "quill", "*"},    // scattered miss
		} {
			want, werr := global.Query(queryRequest{Cell: cell})
			got, gerr := rt.Query(queryRequest{Cell: cell})
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("n=%d %v: err %v vs %v", n, cell, gerr, werr)
			}
			if got.Found != want.Found || got.Count != want.Count {
				t.Fatalf("n=%d %v = %+v, want %+v", n, cell, got, want)
			}
			if strings.Join(got.Closure, ",") != strings.Join(want.Closure, ",") {
				t.Fatalf("n=%d %v closure = %v, want %v", n, cell, got.Closure, want.Closure)
			}
		}
	}
}

// TestRouterSlice pins the routing-dimension contract: bound slices route and
// match the unsharded store; wildcard slices are rejected with guidance.
func TestRouterSlice(t *testing.T) {
	ds := routerDataset(t)
	global := globalLocal(t, ds, 1)
	rt := newTestRouter(t, ds, 1, 2)

	for _, city := range []string{"quito", "sydney", "rome"} {
		req := queryRequest{Cell: []string{city, "*", "*"}}
		want, err := global.Slice(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.Slice(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cells) != len(want.Cells) {
			t.Fatalf("%s slice: %d cells, want %d", city, len(got.Cells), len(want.Cells))
		}
		for i := range want.Cells {
			if strings.Join(got.Cells[i].Cell, ",") != strings.Join(want.Cells[i].Cell, ",") ||
				got.Cells[i].Count != want.Cells[i].Count {
				t.Fatalf("%s slice cell %d = %+v, want %+v", city, i, got.Cells[i], want.Cells[i])
			}
		}
	}

	_, err := rt.Slice(queryRequest{Cell: []string{"*", "pen", "*"}})
	if err == nil || !strings.Contains(err.Error(), "aggregate") {
		t.Fatalf("wildcard-dim0 slice: %v, want rejection pointing at /v1/aggregate", err)
	}
}

// TestRouterCodedValuesRejected pins the labeled-cube contract: dictionary
// codes are shard-local, so the coded forms cannot be routed.
func TestRouterCodedValuesRejected(t *testing.T) {
	rt := newTestRouter(t, routerDataset(t), 1, 2)
	if _, err := rt.Query(queryRequest{Values: []int32{0, ccubing.Star, ccubing.Star}}); err == nil || !strings.Contains(err.Error(), "shard-local") {
		t.Fatalf("coded query: %v", err)
	}
	if _, err := rt.Append(appendRequest{Values: [][]int32{{0, 0, 0}}}); err == nil || !strings.Contains(err.Error(), "shard-local") {
		t.Fatalf("coded append: %v", err)
	}
	if _, err := rt.Update(updateRequest{OldValues: [][]int32{{0, 0, 0}}, NewValues: [][]int32{{0, 0, 1}}}); err == nil || !strings.Contains(err.Error(), "shard-local") {
		t.Fatalf("coded update: %v", err)
	}
}

// TestRouterAggregate checks scattered rollups merge into the unsharded
// answers — keyed count summation, canonical ranking, and post-merge top-k.
func TestRouterAggregate(t *testing.T) {
	ds := routerDataset(t)
	global := globalLocal(t, ds, 1)
	for _, n := range []int{2, 4} {
		rt := newTestRouter(t, ds, 1, n)
		for _, req := range []aggregateRequest{
			{GroupBy: []string{"city"}},
			{GroupBy: []string{"product", "year"}},
			{Where: []string{"*", "pen|ink", "2024..2025"}, GroupBy: []string{"city"}},
			{Where: []string{"oslo|cairo", "*", "*"}, GroupBy: []string{"city"}}, // set on dim0 scatters
			{GroupBy: []string{"city"}, TopK: 3},
			{Where: []string{"tokyo", "*", "*"}, GroupBy: []string{"year"}}, // exact dim0 routes
			{},
		} {
			want, err := global.Aggregate(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rt.Aggregate(req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Exact != want.Exact || len(got.Rows) != len(want.Rows) {
				t.Fatalf("n=%d %+v: %+v, want %+v", n, req, got, want)
			}
			for i := range want.Rows {
				if strings.Join(got.Rows[i].Cell, ",") != strings.Join(want.Rows[i].Cell, ",") ||
					got.Rows[i].Count != want.Rows[i].Count {
					t.Fatalf("n=%d %+v row %d = %+v, want %+v", n, req, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

// TestRouterMutations drives append/delete/update through a 2-shard router,
// cross-shard update pairs included, and checks served counts after refresh.
func TestRouterMutations(t *testing.T) {
	rt := newTestRouter(t, routerDataset(t), 1, 2)

	// Append two rows owned by different shards (oslo→0, cairo→1 at n=2).
	ar, err := rt.Append(appendRequest{Rows: [][]string{{"oslo", "ink", "2025"}, {"cairo", "ink", "2025"}}})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Appended != 2 || ar.Backlog != 2 || ar.Refreshed {
		t.Fatalf("append = %+v", ar)
	}

	// Update with one same-shard pair (paris→rome, both shard 0) and one
	// cross-shard pair (oslo→cairo): the latter splits into delete+append.
	if route.Owner("paris", 2) != route.Owner("rome", 2) || route.Owner("oslo", 2) == route.Owner("cairo", 2) {
		t.Fatal("fixture owners moved; update test assumptions broken")
	}
	ur, err := rt.Update(updateRequest{
		OldRows: [][]string{{"paris", "pen", "2025"}, {"oslo", "pen", "2024"}},
		NewRows: [][]string{{"rome", "pen", "2025"}, {"cairo", "pen", "2024"}},
		Refresh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ur.Updated != 2 || !ur.Refreshed || ur.Backlog != 0 {
		t.Fatalf("update = %+v", ur)
	}

	// After the refresh: oslo lost its pen-2024 tuple but gained ink-2025;
	// cairo gained both an append and the moved tuple.
	check := func(cell []string, want int64, wantFound bool) {
		t.Helper()
		qr, err := rt.Query(queryRequest{Cell: cell})
		if err != nil {
			t.Fatal(err)
		}
		if qr.Found != wantFound || qr.Count != want {
			t.Fatalf("%v = %+v, want (%d,%v)", cell, qr, want, wantFound)
		}
	}
	check([]string{"oslo", "*", "*"}, 1, true)  // 1 base - 1 moved + 1 appended
	check([]string{"cairo", "*", "*"}, 7, true) // 5 base + 1 appended + 1 moved in
	check([]string{"paris", "*", "*"}, 1, true) // 2 base - 1 updated away
	check([]string{"rome", "*", "*"}, 4, true)  // 3 base + 1 updated in
	check([]string{"*", "*", "*"}, 38, true)    // 36 base + 2 appended

	// Delete the appended rows through the router, with inline refresh.
	dr, err := rt.Delete(appendRequest{
		Rows:    [][]string{{"oslo", "ink", "2025"}, {"cairo", "ink", "2025"}},
		Refresh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Deleted != 2 || !dr.Refreshed || dr.Backlog != 0 {
		t.Fatalf("delete = %+v", dr)
	}
	check([]string{"*", "*", "*"}, 36, true)
}

// countingShard counts the Mutate calls a router makes to one worker.
type countingShard struct {
	Shard
	mutations int
}

func (c *countingShard) Mutate(req mutationRequest) (mutationResponse, error) {
	c.mutations++
	return c.Shard.Mutate(req)
}

// TestRouterPartialFailure pins the mutation error contract: a scatter where
// some shard batches applied is a 500 naming the partial state — and naming
// it truthfully, which takes one call per worker; a scatter where every batch
// failed surfaces the shard's own error.
func TestRouterPartialFailure(t *testing.T) {
	ds := routerDataset(t)
	shards := shardedLocals(t, ds, 1, 2)

	// Replace shard 1 with a static (snapshot-loaded) twin: mutations 409.
	liveShard1 := shards[1].(*Local)
	staticCube := loadCube(t, saveTo(t, liveShard1.Cube()))
	shards[1] = NewLocal(staticCube)
	rt, err := NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}

	// Both-shard batch: shard 0 applies, shard 1 refuses → partial 500.
	_, err = rt.Append(appendRequest{Rows: [][]string{{"oslo", "pen", "2030"}, {"cairo", "pen", "2030"}}})
	if err == nil || !strings.Contains(err.Error(), "partial mutation") {
		t.Fatalf("partial append: %v", err)
	}
	if httpStatus(err) != http.StatusInternalServerError {
		t.Fatalf("partial append status = %d, want 500", httpStatus(err))
	}

	// Static-shard-only batch: every batch failed → the shard's 409 verbatim.
	_, err = rt.Append(appendRequest{Rows: [][]string{{"cairo", "pen", "2030"}}})
	if err == nil || httpStatus(err) != http.StatusConflict {
		t.Fatalf("all-failed append: %v (status %d), want the shard's 409", err, httpStatus(err))
	}

	// The other half of the contract: a worker sees its whole share of a
	// routed update in one call, so a share that is rejected leaves nothing
	// buffered, and the "N of M applied" the client is told is what the
	// workers' backlogs say.
	if route.Owner("paris", 2) != 0 || route.Owner("rome", 2) != 0 || route.Owner("oslo", 2) != 0 || route.Owner("cairo", 2) != 1 {
		t.Fatal("fixture owners moved; update test assumptions broken")
	}
	shards = shardedLocals(t, ds, 1, 2)
	counted := []*countingShard{{Shard: shards[0]}, {Shard: shards[1]}}
	if rt, err = NewRouter([]Shard{counted[0], counted[1]}); err != nil {
		t.Fatal(err)
	}
	backlogs := func() (b [2]int) {
		for i, sh := range shards {
			b[i] = sh.(*Local).Cube().Backlog()
		}
		return b
	}

	// Shard 0's share is the pair paris→rome plus the tombstone of the
	// cross-shard pair, whose old tuple is not in the relation: the share is
	// rejected as a whole, the valid pair in it included. Shard 1's share, the
	// cross-shard pair's append, applies.
	_, err = rt.Update(updateRequest{
		OldRows: [][]string{{"paris", "pen", "2025"}, {"oslo", "ink", "2025"}},
		NewRows: [][]string{{"rome", "pen", "2025"}, {"cairo", "ink", "2025"}},
	})
	if err == nil || httpStatus(err) != http.StatusInternalServerError || !strings.Contains(err.Error(), "1 of 2 shard batches applied") {
		t.Fatalf("update with a rejected share: %v", err)
	}
	if got := backlogs(); got != [2]int{0, 1} {
		t.Fatalf("backlogs = %v after \"1 of 2 applied\", want the failed shard at 0 and the other at 1", got)
	}
	if counted[0].mutations != 1 || counted[1].mutations != 1 {
		t.Fatalf("worker calls = %d and %d, want one per owning shard", counted[0].mutations, counted[1].mutations)
	}

	// The same request with an old tuple that exists: still one call each,
	// every op buffered — a pair and a tombstone on shard 0, an append on 1.
	ur, err := rt.Update(updateRequest{
		OldRows: [][]string{{"paris", "pen", "2025"}, {"oslo", "pen", "2024"}},
		NewRows: [][]string{{"rome", "pen", "2025"}, {"cairo", "pen", "2024"}},
	})
	if err != nil || ur.Updated != 2 || ur.Backlog != 5 {
		t.Fatalf("update = %+v, %v", ur, err)
	}
	if got := backlogs(); got != [2]int{3, 2} {
		t.Fatalf("backlogs = %v, want [3 2]", got)
	}
	if counted[0].mutations != 2 || counted[1].mutations != 2 {
		t.Fatalf("worker calls = %d and %d, want one per owning shard and request", counted[0].mutations, counted[1].mutations)
	}
	var text bytes.Buffer
	if err := obs.WriteText(&text, rt.MetricsRegistry()); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text.String(), `ccubing_router_worker_calls_total{endpoint="mutate"}`); v != 4 {
		t.Fatalf("worker_calls_total{mutate} = %v, want 4", v)
	}
}

// noAuxRaw wraps a worker and strips aux_raw from its point answers — the
// malformed avg answer a router must refuse to merge.
type noAuxRaw struct{ Shard }

func (s noAuxRaw) Query(req queryRequest) (queryResponse, error) {
	resp, err := s.Shard.Query(req)
	resp.AuxRaw = nil
	return resp, err
}

// TestRouterAvgWithoutAuxRaw pins the checks on avg worker answers: means do
// not merge, so a scattered avg point read whose worker answer lacks aux_raw
// is a bad-gateway error, never a mean of means — and on the aggregate side,
// where the raw sum is the only measure a partial frame carries, a frame
// whose flags claim avg without an aux column is refused the same way.
func TestRouterAvgWithoutAuxRaw(t *testing.T) {
	ds := routerDataset(t)
	aux := make([]float64, ds.NumTuples())
	for i := range aux {
		aux[i] = float64(i % 5)
	}
	if err := ds.SetMeasure(aux); err != nil {
		t.Fatal(err)
	}
	shards := make([]Shard, 2)
	for i := range shards {
		sub, err := ds.Shard(0, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		cube, err := ccubing.Materialize(sub, ccubing.Options{Measure: ccubing.MeasureAvg})
		if err != nil {
			t.Fatal(err)
		}
		l := NewLocal(cube)
		l.SetShard(i, 2)
		shards[i] = l
	}
	rt, err := NewRouter([]Shard{shards[0], noAuxRaw{shards[1]}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Query(queryRequest{Cell: []string{"*", "pen", "*"}})
	if err == nil || httpStatus(err) != http.StatusBadGateway || !strings.Contains(err.Error(), "aux_raw") {
		t.Fatalf("scattered avg query: %v (status %d), want 502 naming aux_raw", err, httpStatus(err))
	}

	// Worker 1 again, answering the partial endpoint with an empty frame that
	// claims avg (and exact) but has no aux column.
	inner := NewServer(shards[1], Config{}).Handler()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != partialPath {
			inner.ServeHTTP(w, r)
			return
		}
		frame := encodeFrame(nil, &aggPartial{width: 3, exact: true})
		frame[5] |= flagAvg
		w.Write(frame)
	}))
	defer bad.Close()
	worker, err := Dial(bad.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rt, err = NewRouter([]Shard{shards[0], worker}); err != nil {
		t.Fatal(err)
	}
	_, err = rt.Aggregate(aggregateRequest{GroupBy: []string{"product"}})
	if err == nil || httpStatus(err) != http.StatusBadGateway || !strings.Contains(err.Error(), "avg") {
		t.Fatalf("scattered avg aggregate: %v (status %d), want 502 naming the avg flag", err, httpStatus(err))
	}
}

// TestRouterRefusesMismatchedPartials pins what survives from the JSON
// merge's checks: workers whose partials do not describe the same aggregate —
// other group-by dimensions, other measure flags, another cube width — are a
// 502, never a silent merge; so is a worker without the partial endpoint.
func TestRouterRefusesMismatchedPartials(t *testing.T) {
	ds := routerDataset(t)
	locals := shardedLocals(t, ds, 1, 2)
	req := aggregateRequest{GroupBy: []string{"product"}}
	honest, err := locals[1].AggregatePartial(req)
	if err != nil {
		t.Fatal(err)
	}
	for name, tamper := range map[string]func(p *aggPartial){
		"group-by dimensions": func(p *aggPartial) { p.dims = []int{2} },
		"combiner":            func(p *aggPartial) { p.agg = combineMax },
		"measure":             func(p *aggPartial) { p.aux = make([]float64, p.rows()) },
		"width":               func(p *aggPartial) { p.width = 4 },
	} {
		forged := *honest
		tamper(&forged)
		rt, err := NewRouter([]Shard{locals[0], fixedPartial{locals[1], &forged}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Aggregate(req); err == nil || httpStatus(err) != http.StatusBadGateway {
			t.Fatalf("%s mismatch: %v (status %d), want 502", name, err, httpStatus(err))
		}
	}

	// A worker of another build: everything but the partial endpoint.
	inner := NewServer(locals[1], Config{}).Handler()
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == partialPath {
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer old.Close()
	worker, err := Dial(old.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter([]Shard{locals[0], worker})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Aggregate(req); err == nil || httpStatus(err) != http.StatusBadGateway || !strings.Contains(err.Error(), "same build") {
		t.Fatalf("worker without the endpoint: %v (status %d), want 502", err, httpStatus(err))
	}
}

// fixedPartial answers every AggregatePartial with p.
type fixedPartial struct {
	Shard
	p *aggPartial
}

func (s fixedPartial) AggregatePartial(aggregateRequest) (*aggPartial, error) { return s.p, nil }

// TestRouterNDJSON pins the router's all-or-nothing stream contract: any bad
// line rejects the whole stream before a single row is forwarded.
func TestRouterNDJSON(t *testing.T) {
	rt := newTestRouter(t, routerDataset(t), 1, 2)

	_, err := rt.AppendStream(strings.NewReader("[\"oslo\",\"pen\",\"2025\"]\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("bad stream: %v, want a line-2 reject", err)
	}
	st, err := rt.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Backlog != 0 {
		t.Fatalf("backlog = %d after a rejected stream, want 0", st.Backlog)
	}
	if _, err := rt.AppendStream(strings.NewReader("\n\n")); err == nil {
		t.Fatal("empty stream must fail")
	}

	ar, err := rt.AppendStream(strings.NewReader("[\"oslo\",\"pen\",\"2025\"]\n[\"cairo\",\"pen\",\"2025\"]\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ar.Appended != 2 || ar.Backlog != 2 {
		t.Fatalf("stream append = %+v", ar)
	}
	dr, err := rt.DeleteStream(strings.NewReader("[\"oslo\",\"pen\",\"2025\"]\n[\"cairo\",\"pen\",\"2025\"]\n"))
	if err != nil {
		t.Fatal(err)
	}
	if dr.Deleted != 2 {
		t.Fatalf("stream delete = %+v", dr)
	}
	if _, err := rt.Refresh(); err != nil {
		t.Fatal(err)
	}
	qr, err := rt.Query(queryRequest{Cell: []string{"*", "*", "*"}})
	if err != nil {
		t.Fatal(err)
	}
	if qr.Count != 36 {
		t.Fatalf("net count after stream append+delete = %d, want 36", qr.Count)
	}
}

// TestRouterMetaStats checks the merged metadata: cells and rows sum,
// generation is the lagging shard's, and per-worker stats ride along.
func TestRouterMetaStats(t *testing.T) {
	ds := routerDataset(t)
	rt := newTestRouter(t, ds, 1, 4)
	meta, err := rt.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.SourceRows != int64(ds.NumTuples()) || meta.Shards != 4 || !meta.Live || meta.Generation != 0 {
		t.Fatalf("meta = %+v", meta)
	}
	st, err := rt.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 4 || st.SourceRows != int64(ds.NumTuples()) {
		t.Fatalf("stats = %+v", st)
	}

	// Refresh one shard directly: the router's generation stays at the
	// lagging shards' 0.
	if _, err := rt.shards[0].(*Local).Append(appendRequest{Rows: [][]string{{"paris", "pen", "2024"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.shards[0].Refresh(); err != nil {
		t.Fatal(err)
	}
	meta, err = rt.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 0 {
		t.Fatalf("generation = %d after one shard refreshed, want the lagging 0", meta.Generation)
	}
}

// BenchmarkRouterAggregate measures the scatter-merge path. inproc is a
// group-by over 4 in-process shards, merged and ranked by the router with no
// socket anywhere; the tcp cases put 2 httptest workers of 1250+ groups each
// behind Dial, so the partial frame is encoded, sent, read and decoded — once
// grouping by dimension 0 (each worker cuts to top_k itself) and once not
// (every group crosses the wire and the router merges them).
func BenchmarkRouterAggregate(b *testing.B) {
	run := func(b *testing.B, rt *Router, req aggregateRequest) {
		// One answer first: connections, label caches and scratch pools are
		// set up once per process, not once per request.
		if _, err := rt.Aggregate(req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := rt.Aggregate(req)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Rows) != 10 {
				b.Fatalf("rows = %d", len(resp.Rows))
			}
		}
	}
	shardsOf := func(ds *ccubing.Dataset, n int) []*Local {
		locals := make([]*Local, n)
		for i := range locals {
			sub, err := ds.Shard(0, i, n)
			if err != nil {
				b.Fatal(err)
			}
			cube, err := ccubing.Materialize(sub, ccubing.Options{MinSup: 1})
			if err != nil {
				b.Fatal(err)
			}
			locals[i] = NewLocal(cube)
		}
		return locals
	}

	b.Run("inproc", func(b *testing.B) {
		cities := []string{"oslo", "paris", "rome", "lima", "cairo", "tokyo", "sydney", "quito"}
		prods := []string{"pen", "ink", "clip", "tape"}
		years := []string{"2022", "2023", "2024", "2025"}
		var rows [][]string
		for i := 0; i < 4096; i++ {
			rows = append(rows, []string{cities[i%len(cities)], prods[(i/3)%len(prods)], years[(i/7)%len(years)]})
		}
		ds, err := ccubing.NewDataset([]string{"city", "product", "year"}, rows)
		if err != nil {
			b.Fatal(err)
		}
		var shards []Shard
		for _, l := range shardsOf(ds, 4) {
			shards = append(shards, l)
		}
		rt, err := NewRouter(shards)
		if err != nil {
			b.Fatal(err)
		}
		run(b, rt, aggregateRequest{GroupBy: []string{"city", "product"}, TopK: 10})
	})

	b.Run("tcp", func(b *testing.B) {
		ds, err := ccubing.Synthetic(ccubing.SyntheticConfig{T: 30000, D: 4, C: 50, Skew: 0.5, Seed: 23})
		if err != nil {
			b.Fatal(err)
		}
		var shards []Shard
		for _, l := range shardsOf(ds, 2) {
			ws := httptest.NewServer(NewServer(l, Config{}).Handler())
			defer ws.Close()
			worker, err := Dial(ws.URL)
			if err != nil {
				b.Fatal(err)
			}
			shards = append(shards, worker)
		}
		rt, err := NewRouter(shards)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name    string
			groupBy []string
		}{
			{"dim0", []string{"dim0", "dim1"}},
			{"spread", []string{"dim1", "dim2"}},
		} {
			b.Run(c.name, func(b *testing.B) {
				for _, sh := range shards {
					if p, err := sh.AggregatePartial(aggregateRequest{GroupBy: c.groupBy}); err != nil || p.rows() < 1000 {
						b.Fatalf("worker answers %d groups (%v), want 1000+", p.rows(), err)
					}
				}
				run(b, rt, aggregateRequest{GroupBy: c.groupBy, TopK: 10})
			})
		}
	})
}
