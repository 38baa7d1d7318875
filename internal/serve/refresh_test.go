package serve

// Tests for the live-refresh serving surface: /v1/append, /v1/refresh,
// /v1/reload, /v1/stats, plus request hygiene (405 with an Allow header on
// wrong-method hits, 413 on oversized bodies). Moved from cmd/ccserve when
// the server split into this package.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ccubing"
)

// TestAppendRefreshEndToEnd drives append → refresh → query over HTTP and
// checks the served counts track the grown relation.
func TestAppendRefreshEndToEnd(t *testing.T) {
	cube, _ := testCube(t, 1)
	ts := httptest.NewServer(newMux(cube, "", 0))
	defer ts.Close()

	var before queryResponse
	getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("oslo,*,*"), &before)
	if !before.Found || before.Count != 6 {
		t.Fatalf("pre-append oslo = %+v", before)
	}

	// Batch append by labels, new city included; backlog grows, store not yet.
	var ar appendResponse
	postJSON(t, ts, "/v1/append", appendRequest{
		Rows: [][]string{{"oslo", "pen", "2026"}, {"lisbon", "ink", "2026"}},
	}, &ar)
	if ar.Appended != 2 || ar.Backlog != 2 || ar.Refreshed || ar.Generation != 0 {
		t.Fatalf("append = %+v", ar)
	}
	getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("oslo,*,*"), &before)
	if before.Count != 6 {
		t.Fatalf("append must not change served counts before refresh: %+v", before)
	}

	// Refresh folds the delta in; the response carries the partition split.
	var rr refreshResponse
	postJSON(t, ts, "/v1/refresh", struct{}{}, &rr)
	if rr.Generation != 1 || rr.Appended != 2 {
		t.Fatalf("refresh = %+v", rr)
	}
	if rr.PartitionsRecomputed >= rr.PartitionsTotal {
		t.Fatalf("refresh recomputed every partition: %+v", rr)
	}
	var after queryResponse
	getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("oslo,*,*"), &after)
	if !after.Found || after.Count != 7 {
		t.Fatalf("post-refresh oslo = %+v, want 7", after)
	}
	getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("lisbon,*,*"), &after)
	if !after.Found || after.Count != 1 {
		t.Fatalf("post-refresh lisbon = %+v, want 1", after)
	}

	// Append with inline refresh: one round trip.
	postJSON(t, ts, "/v1/append", appendRequest{
		Rows:    [][]string{{"lisbon", "pen", "2026"}},
		Refresh: true,
	}, &ar)
	if !ar.Refreshed || ar.Generation != 2 || ar.Backlog != 0 {
		t.Fatalf("append+refresh = %+v", ar)
	}

	// Metadata and stats reflect the live state.
	var meta cubeResponse
	getJSON(t, ts, "/v1/cube", &meta)
	if meta.Generation != 2 || !meta.Live || meta.SourceRows != 16 {
		t.Fatalf("metadata = %+v", meta)
	}
	var st statsResponse
	getJSON(t, ts, "/v1/stats", &st)
	if st.Generation != 2 || st.Refreshes != 2 || st.Backlog != 0 || !st.Live {
		t.Fatalf("stats = %+v", st)
	}
	if st.Requests["query"] == 0 || st.Requests["append"] != 2 || st.Requests["refresh"] != 1 {
		t.Fatalf("request counters = %+v", st.Requests)
	}
	if st.LastRefreshMs < 0 {
		t.Fatalf("refresh latency = %v", st.LastRefreshMs)
	}
}

// TestAppendNDJSONEndpoint streams NDJSON rows through /v1/append. Updated for
// ISSUE 22's one deliberate behaviour change: an NDJSON body is all-or-nothing
// on a single server as it always was on a router — nothing before a malformed
// line stays buffered (it used to, the body being applied as it streamed), and
// a stream without a row is an error instead of an empty success.
func TestAppendNDJSONEndpoint(t *testing.T) {
	cube, _ := testCube(t, 1)
	ts := httptest.NewServer(newMux(cube, "", 0))
	defer ts.Close()
	for _, bad := range []string{"[\"oslo\",\"pen\",\"2025\"]\nnot json\n", "\n\n"} {
		resp, err := ts.Client().Post(ts.URL+"/v1/append", "application/x-ndjson", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || cube.Backlog() != 0 {
			t.Fatalf("ndjson body %q: status %d with %d rows buffered, want 400 and none", bad, resp.StatusCode, cube.Backlog())
		}
	}
	body := "[\"oslo\",\"pen\",\"2025\"]\n[\"oslo\",\"pen\",\"2025\"]\n"
	resp, err := ts.Client().Post(ts.URL+"/v1/append", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar appendResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ar.Appended != 2 || ar.Backlog != 2 {
		t.Fatalf("ndjson append: status=%d resp=%+v", resp.StatusCode, ar)
	}
	var rr refreshResponse
	postJSON(t, ts, "/v1/refresh", struct{}{}, &rr)
	var qr queryResponse
	getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("oslo,pen,2025"), &qr)
	if qr.Count != 5 { // 3 in the base relation + 2 appended
		t.Fatalf("oslo,pen,2025 = %+v, want 5", qr)
	}
}

// TestStaticCubeConflicts pins 409 on append/refresh against a
// snapshot-loaded cube.
func TestStaticCubeConflicts(t *testing.T) {
	cube, _ := testCube(t, 1)
	path := saveTo(t, cube)
	loaded := loadCube(t, path)
	ts := httptest.NewServer(newMux(loaded, path, 0))
	defer ts.Close()
	if resp := postJSON(t, ts, "/v1/append", appendRequest{Values: [][]int32{{0, 0, 0}}}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("append on static cube: %d, want 409", resp.StatusCode)
	}
	if resp := postJSON(t, ts, "/v1/refresh", struct{}{}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("refresh on static cube: %d, want 409", resp.StatusCode)
	}
}

// TestReloadEndpoint covers the warm snapshot reload path: a refreshed cube
// is saved, a server over the stale snapshot reloads it, and validation
// rejects foreign snapshots and generation regressions.
func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "stale.ccube")
	fresher := filepath.Join(dir, "fresh.ccube")

	cube, _ := testCube(t, 1)
	save := func(c *ccubing.Cube, path string) {
		t.Helper()
		if err := c.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	save(cube, stale)
	if _, err := cube.Append([][]string{{"oslo", "pen", "2030"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Refresh(); err != nil {
		t.Fatal(err)
	}
	save(cube, fresher)

	served := loadCube(t, stale)
	ts := httptest.NewServer(newMux(served, stale, 0))
	defer ts.Close()

	// Reload the fresher snapshot by explicit path.
	var rl reloadResponse
	if resp := postJSON(t, ts, "/v1/reload", reloadRequest{Path: fresher}, &rl); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d", resp.StatusCode)
	}
	if rl.Generation != 1 || rl.SourceRows != 14 {
		t.Fatalf("reload = %+v", rl)
	}
	var qr queryResponse
	getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("oslo,pen,2030"), &qr)
	if !qr.Found || qr.Count != 1 {
		t.Fatalf("reloaded cube misses the refreshed cell: %+v", qr)
	}

	// Generation regression (back to the stale gen-0 snapshot) is rejected.
	if resp := postJSON(t, ts, "/v1/reload", reloadRequest{Path: stale}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("regressing reload: %d, want 409", resp.StatusCode)
	}

	// A reload over a live cube with buffered appends is rejected without
	// force (the backlog would be silently discarded).
	liveTS := httptest.NewServer(newMux(cube, fresher, 0))
	defer liveTS.Close()
	var ar appendResponse
	postJSON(t, liveTS, "/v1/append", appendRequest{Rows: [][]string{{"oslo", "pen", "2031"}}}, &ar)
	if ar.Backlog != 1 {
		t.Fatalf("backlog = %d, want 1", ar.Backlog)
	}
	if resp := postJSON(t, liveTS, "/v1/reload", reloadRequest{Path: fresher}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("reload over backlog: %d, want 409", resp.StatusCode)
	}
	if resp := postJSON(t, liveTS, "/v1/reload", reloadRequest{Path: fresher, Force: true}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("forced reload over backlog: %d, want 200", resp.StatusCode)
	}

	// A snapshot of a different cube is rejected.
	other, err := ccubing.NewDataset([]string{"x", "y"}, [][]string{{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	otherCube, err := ccubing.Materialize(other, ccubing.Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "foreign.ccube")
	save(otherCube, foreign)
	if resp := postJSON(t, ts, "/v1/reload", reloadRequest{Path: foreign}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("foreign reload: %d, want 409", resp.StatusCode)
	}

	// Empty body defaults to the startup snapshot path... which now regresses.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/reload", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("default-path reload: %d, want 409 (stale snapshot)", resp.StatusCode)
	}
}

// TestConcurrentReloadsKeepGenerationOrder races a reload of generation g
// against one of g+1 on a server at g-1. Each passes validation against the
// serving cube on its own; unless load, validation and swap are one step, the
// slower of the two publishes last, and when that is g the serving generation
// goes backwards. Serialized, g+1 always ends up serving (g is either
// replaced or refused with 409), and no reader ever sees a generation lower
// than one it saw before. The window is a few instructions wide, hence the
// start barrier and the round count: without the mutex the test fails within
// the first ~1000 rounds, with or without -race.
func TestConcurrentReloadsKeepGenerationOrder(t *testing.T) {
	cube, _ := testCube(t, 1)
	paths := []string{saveTo(t, cube)}
	for year := 2030; year < 2032; year++ {
		if _, err := cube.Append([][]string{{"oslo", "pen", strconv.Itoa(year)}}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := cube.Refresh(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, saveTo(t, cube))
	}
	for round := 0; round < 2000; round++ {
		l := NewLocal(loadCube(t, paths[0]))
		start, done := make(chan struct{}), make(chan struct{})
		watched := make(chan error, 1)
		go func() {
			var last uint64
			for {
				if g := l.Cube().Generation(); g < last {
					watched <- fmt.Errorf("serving generation went from %d back to %d", last, g)
					return
				} else {
					last = g
				}
				select {
				case <-done:
					watched <- nil
					return
				default:
					runtime.Gosched()
				}
			}
		}()
		var wg sync.WaitGroup
		errs := make([]error, 3)
		for g := 1; g <= 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[g] = l.Reload(reloadRequest{Path: paths[g]})
			}()
		}
		close(start)
		wg.Wait()
		close(done)
		if err := <-watched; err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := l.Cube().Generation(); got != 2 {
			t.Fatalf("round %d: serving generation %d after reloading 1 and 2 concurrently (errors: %v, %v)", round, got, errs[1], errs[2])
		}
		if errs[2] != nil {
			t.Fatalf("round %d: the reload of the newest generation failed: %v", round, errs[2])
		}
		if errs[1] != nil && httpStatus(errs[1]) != http.StatusConflict {
			t.Fatalf("round %d: the reload that lost the race failed with %v, want 409 or success", round, errs[1])
		}
	}
}

// TestMethodNotAllowed pins 405 + Allow on wrong-method hits for every v1
// endpoint.
func TestMethodNotAllowed(t *testing.T) {
	cube, _ := testCube(t, 1)
	ts := httptest.NewServer(newMux(cube, "", 0))
	defer ts.Close()
	for _, tc := range []struct{ method, path string }{
		{http.MethodDelete, "/v1/query"},
		{http.MethodPut, "/v1/slice"},
		{http.MethodDelete, "/v1/aggregate"},
		{http.MethodGet, "/v1/append"},
		{http.MethodGet, "/v1/delete"},
		{http.MethodGet, "/v1/update"},
		{http.MethodGet, "/v1/refresh"},
		{http.MethodGet, "/v1/reload"},
		{http.MethodPost, "/v1/stats"},
		{http.MethodPost, "/v1/cube"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if resp.Header.Get("Allow") == "" {
			t.Fatalf("%s %s: 405 without an Allow header", tc.method, tc.path)
		}
	}
}

// TestOversizedBody pins 413 via http.MaxBytesReader on the POST endpoints.
func TestOversizedBody(t *testing.T) {
	cube, _ := testCube(t, 1)
	ts := httptest.NewServer(newMux(cube, "", 0))
	defer ts.Close()
	// A > 1 MiB query body blows the ceiling mid-decode.
	big := `{"cell": ["` + strings.Repeat("x", maxQueryBody+1024) + `","*","*"]}`
	for _, path := range []string{"/v1/query", "/v1/slice", "/v1/aggregate"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with %d bytes: %d, want 413", path, len(big), resp.StatusCode)
		}
	}
}
