package serve

// Tests for the query serving surface, moved here from cmd/ccserve when the
// server split into the reusable serving layer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"ccubing"
)

// TestServeEndToEnd answers point queries over HTTP against a live server —
// the integration path of the acceptance criteria.
func TestServeEndToEnd(t *testing.T) {
	cube, ds := testCube(t, 1)
	ts := httptest.NewServer(newMux(cube, "", 0))
	defer ts.Close()

	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	var meta cubeResponse
	getJSON(t, ts, "/v1/cube", &meta)
	if meta.Dims != 3 || !meta.Labeled || meta.Cells != cube.NumCells() || meta.MinSup != 1 {
		t.Fatalf("metadata = %+v", meta)
	}
	if meta.MeasureKind != "none" || meta.Shard != "" || meta.Shards != 0 {
		t.Fatalf("single-cube metadata carries topology fields: %+v", meta)
	}

	// GET point query by label, wildcard included. oslo appears in 6 rows.
	var qr queryResponse
	getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("oslo,*,*"), &qr)
	if !qr.Found || qr.Count != 6 {
		t.Fatalf("oslo,*,* = %+v", qr)
	}
	if len(qr.Closure) != 3 || qr.Closure[0] != "oslo" {
		t.Fatalf("closure = %v", qr.Closure)
	}
	// (oslo,*,*) is not closed: all oslo rows share year 2025, so the
	// closure must bind it.
	if qr.Closure[2] != "2025" {
		t.Fatalf("closure should bind year 2025, got %v", qr.Closure)
	}

	// POST by labels and by coded values agree with the library.
	for _, labels := range [][]string{
		{"rome", "pen", "*"},
		{"*", "ink", "2025"},
		{"paris", "*", "2025"},
	} {
		var want int64
		wantOK := false
		if vals, err := cube.ParseCell(labels); err == nil {
			want, wantOK = cube.Query(vals)
		}
		var pr queryResponse
		postJSON(t, ts, "/v1/query", queryRequest{Cell: labels}, &pr)
		if pr.Found != wantOK || pr.Count != want {
			t.Fatalf("POST %v = %+v, want (%d,%v)", labels, pr, want, wantOK)
		}
	}
	vals, err := cube.ParseCell([]string{"rome", "*", "2024"})
	if err != nil {
		t.Fatal(err)
	}
	var pr queryResponse
	postJSON(t, ts, "/v1/query", queryRequest{Values: vals}, &pr)
	if !pr.Found || pr.Count != 1 {
		t.Fatalf("values query = %+v", pr)
	}

	// Unknown label: found=false, not an error.
	getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("atlantis,*,*"), &qr)
	if qr.Found {
		t.Fatalf("atlantis = %+v", qr)
	}

	// Slice: every closed cell under city=oslo.
	var sr sliceResponse
	getJSON(t, ts, "/v1/slice?cell="+url.QueryEscape("oslo,*,*"), &sr)
	if len(sr.Cells) == 0 || sr.Truncated {
		t.Fatalf("slice = %+v", sr)
	}
	for _, c := range sr.Cells {
		if c.Cell[0] != "oslo" {
			t.Fatalf("slice cell %v escapes the slice", c.Cell)
		}
	}
	var sr1 sliceResponse
	getJSON(t, ts, "/v1/slice?cell="+url.QueryEscape("oslo,*,*")+"&limit=1", &sr1)
	if len(sr1.Cells) != 1 || !sr1.Truncated {
		t.Fatalf("limited slice = %+v", sr1)
	}
	// limit=0 means "default", matching the POST body contract.
	var sr0 sliceResponse
	getJSON(t, ts, "/v1/slice?cell="+url.QueryEscape("oslo,*,*")+"&limit=0", &sr0)
	if len(sr0.Cells) != len(sr.Cells) {
		t.Fatalf("limit=0 slice = %d cells, want default %d", len(sr0.Cells), len(sr.Cells))
	}

	// Bad requests are 400 with a JSON error.
	for _, path := range []string{
		"/v1/query",          // missing cell
		"/v1/query?cell=a,b", // wrong arity
		"/v1/slice?cell=a&limit=x",
	} {
		resp := getJSON(t, ts, path, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: %d, want 400", path, resp.StatusCode)
		}
	}
	if resp := postJSON(t, ts, "/v1/query", map[string]any{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty POST: %d, want 400", resp.StatusCode)
	}

	// Cross-check a brute-force count through the full HTTP path.
	tb := ds.Table()
	var rome2025 int64
	for tid := 0; tid < tb.NumTuples(); tid++ {
		if tb.Cols[0][tid] == mustCode(t, cube, 0, "rome") && tb.Cols[2][tid] == mustCode(t, cube, 2, "2025") {
			rome2025++
		}
	}
	getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("rome,*,2025"), &qr)
	if !qr.Found || qr.Count != rome2025 {
		t.Fatalf("rome,*,2025 = %+v, want %d", qr, rome2025)
	}
}

// TestServeFromSnapshot serves a cube loaded from a ccube -store snapshot.
func TestServeFromSnapshot(t *testing.T) {
	cube, _ := testCube(t, 2)
	path := saveTo(t, cube)

	loaded := loadCube(t, path)
	ts := httptest.NewServer(newMux(loaded, "", 0))
	defer ts.Close()
	var qr queryResponse
	getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("oslo,pen,*"), &qr)
	want, ok := cube.Query(mustVals(t, cube, "oslo", "pen", "*"))
	if qr.Found != ok || qr.Count != want {
		t.Fatalf("snapshot-served query = %+v, want (%d,%v)", qr, want, ok)
	}
	// minsup survives the round trip.
	var meta cubeResponse
	getJSON(t, ts, "/v1/cube", &meta)
	if meta.MinSup != 2 {
		t.Fatalf("minsup = %d, want 2", meta.MinSup)
	}
}

// TestServeCodedCube queries a dictionary-less cube by coded values.
func TestServeCodedCube(t *testing.T) {
	ds, err := ccubing.Synthetic(ccubing.SyntheticConfig{T: 300, D: 3, C: 5, Skew: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(cube, "", 0))
	defer ts.Close()
	var qr queryResponse
	getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("0,*,*"), &qr)
	want, ok := cube.Query([]int32{0, ccubing.Star, ccubing.Star})
	if qr.Found != ok || qr.Count != want {
		t.Fatalf("coded query = %+v, want (%d,%v)", qr, want, ok)
	}
	if resp := getJSON(t, ts, "/v1/query?cell="+url.QueryEscape("x,*,*"), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-numeric coded query: %d, want 400", resp.StatusCode)
	}
}

// TestAggregateEndpoint drives /v1/aggregate — range + set predicates,
// group-by and top-k — against brute-force recomputation over the relation,
// the integration path of the acceptance criteria.
func TestAggregateEndpoint(t *testing.T) {
	cube, ds := testCube(t, 1)
	ts := httptest.NewServer(newMux(cube, "", 0))
	defer ts.Close()
	tb := ds.Table()

	// Brute force: count tuples per city among (pen|ink, 2024..2025) rows.
	codeOf := func(dim int, label string) int32 { return mustCode(t, cube, dim, label) }
	match := func(tid int) bool {
		p := tb.Cols[1][tid]
		y := tb.Cols[2][tid]
		return (p == codeOf(1, "pen") || p == codeOf(1, "ink")) &&
			(y == codeOf(2, "2024") || y == codeOf(2, "2025"))
	}
	wantByCity := map[string]int64{}
	var total int64
	for tid := 0; tid < tb.NumTuples(); tid++ {
		if match(tid) {
			wantByCity[cube.Labels([]int32{tb.Cols[0][tid], ccubing.Star, ccubing.Star})[0]]++
			total++
		}
	}

	// POST: group-by city under the predicates.
	var ar aggregateResponse
	postJSON(t, ts, "/v1/aggregate", aggregateRequest{
		Where:   []string{"*", "pen|ink", "2024..2025"},
		GroupBy: []string{"city"},
	}, &ar)
	if len(ar.Rows) != len(wantByCity) {
		t.Fatalf("aggregate rows = %+v, want %d groups", ar.Rows, len(wantByCity))
	}
	if !ar.Exact {
		t.Fatal("minsup-1 aggregate must report exact")
	}
	for _, row := range ar.Rows {
		if want := wantByCity[row.Cell[0]]; row.Count != want {
			t.Fatalf("group %v = %d, want %d", row.Cell, row.Count, want)
		}
	}
	for i := 1; i < len(ar.Rows); i++ {
		if ar.Rows[i].Count > ar.Rows[i-1].Count {
			t.Fatalf("rows not ranked: %+v", ar.Rows)
		}
	}

	// GET with top_k=1: the single best group.
	var top aggregateResponse
	getJSON(t, ts, "/v1/aggregate?where="+url.QueryEscape("*,pen|ink,2024..2025")+"&group_by=city&top_k=1&order_by=count", &top)
	if len(top.Rows) != 1 || top.Rows[0].Count != ar.Rows[0].Count {
		t.Fatalf("top-1 = %+v, want %+v", top.Rows, ar.Rows[0])
	}

	// No group-by: one grand-total row under the range predicate.
	var tot aggregateResponse
	postJSON(t, ts, "/v1/aggregate", aggregateRequest{Where: []string{"*", "pen|ink", "2024..2025"}}, &tot)
	if len(tot.Rows) != 1 || tot.Rows[0].Count != total {
		t.Fatalf("grand total = %+v, want %d", tot.Rows, total)
	}

	// On an iceberg cube the same query stays exact: the store carries a
	// residual summary of the below-threshold mass, so aggregates fold the
	// pruned tuples back in and match the minsup-1 cube row for row.
	iceberg, _ := testCube(t, 3)
	its := httptest.NewServer(newMux(iceberg, "", 0))
	defer its.Close()
	var iar, full aggregateResponse
	postJSON(t, its, "/v1/aggregate", aggregateRequest{GroupBy: []string{"city"}}, &iar)
	postJSON(t, ts, "/v1/aggregate", aggregateRequest{GroupBy: []string{"city"}}, &full)
	if !iar.Exact {
		t.Fatal("iceberg aggregate with residuals must report exact=true")
	}
	if len(iar.Rows) != len(full.Rows) {
		t.Fatalf("iceberg aggregate rows = %+v, minsup-1 rows = %+v", iar.Rows, full.Rows)
	}
	for i := range iar.Rows {
		if iar.Rows[i].Count != full.Rows[i].Count || !equalLabels(iar.Rows[i].Cell, full.Rows[i].Cell) {
			t.Fatalf("iceberg row %d = %+v, minsup-1 row = %+v", i, iar.Rows[i], full.Rows[i])
		}
	}

	// Bad requests are 400.
	for _, path := range []string{
		"/v1/aggregate?where=a,b",       // wrong arity
		"/v1/aggregate?group_by=nope",   // unknown dimension
		"/v1/aggregate?top_k=-1",        // negative top-k
		"/v1/aggregate?order_by=zigzag", // unknown ranking
		"/v1/aggregate?order_by=aux",    // no measure to rank by
		"/v1/aggregate?aux_agg=avg",     // avg needs an avg-measure cube
	} {
		if resp := getJSON(t, ts, path, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestCanonicalOrdering pins the serve-layer result order: aggregate rows
// rank by count descending with ties broken by label tuple ascending, and
// slice cells order by fixed-dimension mask then labels — both independent
// of dictionary insertion order, so routed and single-store answers align.
func TestCanonicalOrdering(t *testing.T) {
	cube, _ := testCube(t, 1)
	ts := httptest.NewServer(newMux(cube, "", 0))
	defer ts.Close()

	// oslo=6, paris=4, rome=3 — distinct counts rank by count. Group by
	// product: pen=7, ink=6.
	var ar aggregateResponse
	postJSON(t, ts, "/v1/aggregate", aggregateRequest{GroupBy: []string{"city"}}, &ar)
	for i := 1; i < len(ar.Rows); i++ {
		prev, cur := ar.Rows[i-1], ar.Rows[i]
		if cur.Count > prev.Count {
			t.Fatalf("rows not ranked by count: %+v", ar.Rows)
		}
		if cur.Count == prev.Count && !lessLabels(prev.Cell, cur.Cell) {
			t.Fatalf("tied rows not in label order: %+v", ar.Rows)
		}
	}

	// Group by year: 2025=12, 2024=1. Equal-count ties exercise the label
	// tie-break deterministically across repeated calls.
	var first sliceResponse
	getJSON(t, ts, "/v1/slice?cell="+url.QueryEscape("oslo,*,*"), &first)
	for i := 1; i < len(first.Cells); i++ {
		prev, cur := first.Cells[i-1], first.Cells[i]
		pm, cm := cellMask(prev.Cell), cellMask(cur.Cell)
		if cm < pm || (cm == pm && lessLabels(cur.Cell, prev.Cell)) {
			t.Fatalf("slice cells out of canonical order: %v before %v", prev.Cell, cur.Cell)
		}
	}
	var again sliceResponse
	getJSON(t, ts, "/v1/slice?cell="+url.QueryEscape("oslo,*,*"), &again)
	for i := range first.Cells {
		if !equalLabels(first.Cells[i].Cell, again.Cells[i].Cell) {
			t.Fatalf("slice order unstable: %v vs %v", first.Cells[i].Cell, again.Cells[i].Cell)
		}
	}
}

// TestAggregateTopKCutsLikeFullRanking pins rank-before-render: for every
// top_k, ranking measure and measure kind, the answer must be the first
// top_k rows of the full (top_k 0) answer, byte for byte — on data full of
// rank ties, and with dictionary codes in an order the labels are not, so a
// cut through a tie can only come out right if every tied row was rendered.
func TestAggregateTopKCutsLikeFullRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rows [][]string
	var aux []float64
	for _, i := range rng.Perm(40) {
		for n := 1 + i%3; n > 0; n-- {
			rows = append(rows, []string{fmt.Sprintf("city%02d", i), []string{"pen", "ink"}[rng.Intn(2)]})
			aux = append(aux, float64(i%4))
		}
	}
	for _, kind := range []ccubing.MeasureKind{ccubing.MeasureSum, ccubing.MeasureAvg} {
		ds, err := ccubing.NewDataset([]string{"city", "product"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.SetMeasure(aux); err != nil {
			t.Fatal(err)
		}
		cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: 2, Measure: kind})
		if err != nil {
			t.Fatal(err)
		}
		l := NewLocal(cube)
		for _, by := range []string{"count", "aux"} {
			req := aggregateRequest{GroupBy: []string{"city"}, OrderBy: by}
			full, err := l.Aggregate(req)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(full.Rows)
			for k := 1; k <= len(full.Rows)+1; k++ {
				req.TopK = k
				top, err := l.Aggregate(req)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := json.Marshal(top.Rows)
				if cut, _ := json.Marshal(full.Rows[:min(k, len(full.Rows))]); !bytes.Equal(got, cut) {
					t.Fatalf("%v by %s top_k %d:\n got %s\nwant %s\n(full %s)", kind, by, k, got, cut, want)
				}
			}
		}
	}
}

func equalLabels(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestValuesValidation pins the coded-values contract on both methods:
// arbitrary negative entries are rejected with 400 (only Star marks a
// wildcard), and GET accepts the values= form sharing that validation.
func TestValuesValidation(t *testing.T) {
	ds, err := ccubing.Synthetic(ccubing.SyntheticConfig{T: 300, D: 3, C: 5, Skew: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(cube, "", 0))
	defer ts.Close()

	// POST with a negative non-Star entry: 400, not a silent miss.
	for _, vals := range [][]int32{
		{-2, 0, 1},
		{0, -7, ccubing.Star},
	} {
		if resp := postJSON(t, ts, "/v1/query", queryRequest{Values: vals}, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST values %v: %d, want 400", vals, resp.StatusCode)
		}
		if resp := postJSON(t, ts, "/v1/slice", queryRequest{Values: vals}, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST slice values %v: %d, want 400", vals, resp.StatusCode)
		}
	}

	// GET values= answers like the library (Star = -1 wildcard).
	var qr queryResponse
	getJSON(t, ts, "/v1/query?values=0,-1,2", &qr)
	want, ok := cube.Query([]int32{0, ccubing.Star, 2})
	if qr.Found != ok || qr.Count != want {
		t.Fatalf("GET values query = %+v, want (%d,%v)", qr, want, ok)
	}
	var sr sliceResponse
	getJSON(t, ts, "/v1/slice?values=0,-1,-1", &sr)
	wantCells := 0
	cube.Slice([]int32{0, ccubing.Star, ccubing.Star}, func(ccubing.Cell) bool { wantCells++; return true })
	if len(sr.Cells) != wantCells {
		t.Fatalf("GET values slice = %d cells, want %d", len(sr.Cells), wantCells)
	}

	// GET validation shares the POST contract.
	for _, path := range []string{
		"/v1/query?values=0,-2,1",           // negative non-Star
		"/v1/query?values=0,1",              // wrong arity
		"/v1/query?values=0,x,1",            // non-numeric
		"/v1/query?cell=0,1,2&values=0,1,2", // both forms
	} {
		if resp := getJSON(t, ts, path, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: %d, want 400", path, resp.StatusCode)
		}
	}
}
