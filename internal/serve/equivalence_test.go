package serve

// The routed-vs-single equivalence suite: a fuzzed workload of queries,
// slices, aggregates and interleaved mutations — one verb per request through
// the public endpoints, all three mixed in one batch through the internal one
// — runs against one server over
// the whole relation and against a router over N shard workers (real HTTP on
// loopback via httptest, workers Dial'd like production), and every read
// response must match BYTE-identically — counts, closures, measure values,
// canonical row order and the exact flags alike. At minsup 1 no iceberg
// suppression exists anywhere; at minsup > 1 every store carries its
// residual summary, so scattered aggregates must additionally stay exact —
// byte-identical to a minsup-1 oracle server over the same live relation,
// with "exact": true throughout the mutation interleavings.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"ccubing"
)

// fuzzCities covers every shard owner for n ∈ {1, 2, 4} (see routerDataset).
var fuzzCities = []string{"oslo", "paris", "rome", "lima", "cairo", "tokyo", "sydney", "quito"}
var fuzzProds = []string{"pen", "ink", "clip", "tape"}
var fuzzYears = []string{"2022", "2023", "2024", "2025"}

type fuzzTuple struct {
	row []string
	aux float64
}

func TestRouterEquivalenceFuzz(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			fuzzEquivalence(t, n, 1, ccubing.MeasureSum)
		})
	}
}

// TestRouterIcebergExactFuzz is the iceberg regime of the same suite: every
// cube is materialized at minsup 3 (2 for the extremum kinds), so shard
// stores carry residual summaries and scattered aggregates must stay exact.
// Sum covers the plain merge, avg the stored-sum (aux_raw) merge with the
// single post-merge division, min/max the extremum merge; each run also
// fronts a minsup-1 oracle that aggregate answers must match byte for byte.
func TestRouterIcebergExactFuzz(t *testing.T) {
	cases := []struct {
		n      int
		minsup int64
		kind   ccubing.MeasureKind
	}{
		{1, 3, ccubing.MeasureSum},
		{2, 3, ccubing.MeasureSum},
		{4, 3, ccubing.MeasureSum},
		{1, 3, ccubing.MeasureAvg},
		{2, 3, ccubing.MeasureAvg},
		{4, 3, ccubing.MeasureAvg},
		{2, 2, ccubing.MeasureMin},
		{2, 2, ccubing.MeasureMax},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("shards=%d/minsup=%d/%v", c.n, c.minsup, c.kind), func(t *testing.T) {
			fuzzEquivalence(t, c.n, c.minsup, c.kind)
		})
	}
}

// rawDo issues one request and returns the status and raw body bytes.
func rawDo(t *testing.T, ts *httptest.Server, method, path, contentType, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func fuzzEquivalence(t *testing.T, n int, minsup int64, kind ccubing.MeasureKind) {
	rng := rand.New(rand.NewSource(int64(1000+n) + 100*minsup + 10000*int64(kind)))
	// tieRng draws the worker-side-cut reads, apart from rng so the sequence
	// of everything else stays what it was before they existed.
	tieRng := rand.New(rand.NewSource(int64(7000+n) + 100*minsup + 10000*int64(kind)))

	// Aux combiners whose scatter merge is well-defined for this measure
	// kind: the cube's own combiner (explicitly and as the "" default), plus
	// plain sums of the stored values where those are sums themselves. The
	// extremum kinds skip "" — its sum-of-stored default would sum per-shard
	// minima, which no partition of the tuples can merge.
	var aggs []string
	switch kind {
	case ccubing.MeasureAvg:
		aggs = []string{"", "avg", "sum"}
	case ccubing.MeasureMin:
		aggs = []string{"min"}
	case ccubing.MeasureMax:
		aggs = []string{"max"}
	default:
		aggs = []string{"", "sum"}
	}

	// Base relation: ~150 tuples with an integer-valued sum measure (integer
	// aux keeps float arithmetic exact, so shard-order summation cannot
	// perturb the encoded bytes).
	var live []fuzzTuple
	for i := 0; i < 150; i++ {
		live = append(live, fuzzTuple{
			row: []string{
				fuzzCities[rng.Intn(len(fuzzCities))],
				fuzzProds[rng.Intn(len(fuzzProds))],
				fuzzYears[rng.Intn(len(fuzzYears))],
			},
			aux: float64(1 + rng.Intn(9)),
		})
	}
	buildDS := func() *ccubing.Dataset {
		rows := make([][]string, len(live))
		aux := make([]float64, len(live))
		for i, tp := range live {
			rows[i] = tp.row
			aux[i] = tp.aux
		}
		ds, err := ccubing.NewDataset([]string{"city", "product", "year"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.SetMeasure(aux); err != nil {
			t.Fatal(err)
		}
		return ds
	}
	opts := ccubing.Options{MinSup: minsup, Measure: kind}

	ds := buildDS()
	globalCube, err := ccubing.Materialize(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(newMux(globalCube, "", 0))
	defer single.Close()

	// Iceberg runs front a minsup-1 oracle over the same live relation:
	// residual-backed aggregates must match it byte for byte, which also
	// pins "exact": true (the oracle has nothing to be inexact about).
	var oracle *httptest.Server
	if minsup > 1 {
		oracleCube, err := ccubing.Materialize(buildDS(), ccubing.Options{MinSup: 1, Measure: kind})
		if err != nil {
			t.Fatal(err)
		}
		oracle = httptest.NewServer(newMux(oracleCube, "", 0))
		defer oracle.Close()
	}

	// N shard workers behind real HTTP, Dial'd like production. Each worker
	// builds its dictionaries from its own tuples, in first-occurrence order.
	workers := make([]Shard, n)
	cubes := make([]*ccubing.Cube, n)
	for i := 0; i < n; i++ {
		sub, err := ds.Shard(0, i, n)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		cube, err := ccubing.Materialize(sub, opts)
		if err != nil {
			t.Fatal(err)
		}
		cubes[i] = cube
		l := NewLocal(cube)
		l.SetShard(i, n)
		ws := httptest.NewServer(NewServer(l, Config{}).Handler())
		defer ws.Close()
		sh, err := Dial(ws.URL)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = sh
	}
	router, err := NewRouter(workers)
	if err != nil {
		t.Fatal(err)
	}
	routed := httptest.NewServer(NewServer(router, Config{}).Handler())
	defer routed.Close()

	// The merge must go through labels: the same product or year carries
	// different dictionary codes on different workers, so a router that merged
	// partials on worker ids instead of interning their tables would mix
	// groups up.
	if n > 1 {
		differ := false
		for d, pool := range [][]string{nil, fuzzProds, fuzzYears} {
			for _, label := range pool {
				if mustCode(t, cubes[0], d, label) != mustCode(t, cubes[1], d, label) {
					differ = true
				}
			}
		}
		if !differ {
			t.Fatal("fixture: shards 0 and 1 code every product and year alike; table interning is not exercised")
		}
	}

	// compare issues the same read to both servers and requires byte-equal
	// bodies: the sharded deployment must be indistinguishable.
	compare := func(method, path, body string) {
		t.Helper()
		ct := ""
		if method == http.MethodPost {
			ct = "application/json"
		}
		sc, sb := rawDo(t, single, method, path, ct, body)
		rc, rb := rawDo(t, routed, method, path, ct, body)
		if sc != rc || !bytes.Equal(sb, rb) {
			t.Fatalf("divergence on %s %s %s:\n single: %d %s\n routed: %d %s",
				method, path, body, sc, sb, rc, rb)
		}
	}
	// mutate applies the same mutation to both servers; responses carry
	// deployment-shaped fields (per-shard backlogs), so only success must
	// agree — the read equivalence above is the real check.
	mutate := func(path, body string) {
		t.Helper()
		sc, sb := rawDo(t, single, http.MethodPost, path, "application/json", body)
		rc, rb := rawDo(t, routed, http.MethodPost, path, "application/json", body)
		if sc != http.StatusOK || rc != http.StatusOK {
			t.Fatalf("mutation %s %s: single %d %s, routed %d %s", path, body, sc, sb, rc, rb)
		}
		if oracle != nil {
			if oc, ob := rawDo(t, oracle, http.MethodPost, path, "application/json", body); oc != http.StatusOK {
				t.Fatalf("oracle mutation %s %s: %d %s", path, body, oc, ob)
			}
		}
	}

	randCell := func() []string {
		cell := make([]string, 3)
		pools := [][]string{fuzzCities, fuzzProds, fuzzYears}
		for d := range cell {
			switch rng.Intn(4) {
			case 0:
				cell[d] = "*"
			case 1:
				if d == 0 {
					cell[d] = "atlantis" // unknown label: a miss, not an error
				} else {
					cell[d] = pools[d][rng.Intn(len(pools[d]))]
				}
			default:
				cell[d] = pools[d][rng.Intn(len(pools[d]))]
			}
		}
		return cell
	}
	randWhere := func() string {
		parts := make([]string, 3)
		pools := [][]string{fuzzCities, fuzzProds, fuzzYears}
		for d := range parts {
			pool := pools[d]
			switch rng.Intn(4) {
			case 0:
				parts[d] = pool[rng.Intn(len(pool))]
			case 1:
				parts[d] = pool[rng.Intn(len(pool))] + "|" + pool[rng.Intn(len(pool))]
			case 2:
				lo, hi := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
				if lo > hi {
					lo, hi = hi, lo
				}
				parts[d] = lo + ".." + hi
			default:
				parts[d] = "*"
			}
		}
		return strings.Join(parts, ",")
	}
	groupBys := []string{"", "city", "product", "year", "city,year", "product,year", "city,product,year"}

	// compareAggregate is compare for aggregates, which on an iceberg topology
	// must also equal the minsup-1 answer entirely: rows, measures, ranking
	// and the exact flag.
	compareAggregate := func(path string) {
		t.Helper()
		compare(http.MethodGet, path, "")
		if oracle == nil {
			return
		}
		sc, sb := rawDo(t, single, http.MethodGet, path, "", "")
		oc, ob := rawDo(t, oracle, http.MethodGet, path, "", "")
		if sc != oc || !bytes.Equal(sb, ob) {
			t.Fatalf("iceberg aggregate diverges from minsup-1 oracle on %s:\n iceberg: %d %s\n  oracle: %d %s",
				path, sc, sb, oc, ob)
		}
		if !strings.Contains(string(sb), `"exact":true`) {
			t.Fatalf("iceberg aggregate not exact on %s: %s", path, sb)
		}
	}

	checkReads := func() {
		t.Helper()
		for q := 0; q < 8; q++ {
			cell := randCell()
			if minsup > 1 && cell[0] == "*" {
				// Scattered point queries on iceberg cubes stay per-shard lower
				// bounds (Lookup does not consult residuals — only aggregates
				// fold them), so byte-identity holds only for dim-0-bound ones.
				cell[0] = fuzzCities[rng.Intn(len(fuzzCities))]
			}
			compare(http.MethodGet, "/v1/query?cell="+url.QueryEscape(strings.Join(cell, ",")), "")
		}
		for s := 0; s < 3; s++ {
			cell := randCell()
			cell[0] = fuzzCities[rng.Intn(len(fuzzCities))] // slices must bind dim 0 through a router
			path := "/v1/slice?cell=" + url.QueryEscape(strings.Join(cell, ","))
			if rng.Intn(3) == 0 {
				path += fmt.Sprintf("&limit=%d", 1+rng.Intn(6))
			}
			compare(http.MethodGet, path, "")
		}
		for a := 0; a < 4; a++ {
			v := url.Values{}
			if rng.Intn(3) > 0 {
				v.Set("where", randWhere())
			}
			if gb := groupBys[rng.Intn(len(groupBys))]; gb != "" {
				v.Set("group_by", gb)
			}
			if rng.Intn(2) == 0 {
				v.Set("top_k", fmt.Sprint(1+rng.Intn(8)))
			}
			if rng.Intn(3) == 0 {
				v.Set("order_by", "aux")
			}
			if agg := aggs[rng.Intn(len(aggs))]; agg != "" {
				v.Set("aux_agg", agg)
			}
			compareAggregate("/v1/aggregate?" + v.Encode())
		}
		// The worker-side cut: a group-by naming dimension 0 forwards top_k, and
		// here top_k is below the group count while most groups tie on their
		// rank (150 tuples over up to 128 groups: counts of 1, 2 and 3), so
		// every worker has to keep the very tied rows the single server keeps.
		for _, gb := range []string{"city,year", "city,product", "city,product,year"} {
			for _, by := range []string{"count", "aux"} {
				v := url.Values{"group_by": {gb}, "order_by": {by}, "top_k": {fmt.Sprint(1 + tieRng.Intn(12))}}
				if tieRng.Intn(3) == 0 {
					v.Set("where", "*,"+fuzzProds[tieRng.Intn(len(fuzzProds))]+"|"+fuzzProds[tieRng.Intn(len(fuzzProds))]+",*")
				}
				if agg := aggs[tieRng.Intn(len(aggs))]; agg != "" {
					v.Set("aux_agg", agg)
				}
				compareAggregate("/v1/aggregate?" + v.Encode())
			}
		}
	}

	rowJSON := func(rows [][]string, aux []float64, refresh bool) string {
		var b strings.Builder
		b.WriteString(`{"rows":[`)
		for i, r := range rows {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `["%s"]`, strings.Join(r, `","`))
		}
		b.WriteString(`],"aux":[`)
		for i, a := range aux {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%g", a)
		}
		b.WriteString(`]`)
		if refresh {
			b.WriteString(`,"refresh":true`)
		}
		b.WriteString(`}`)
		return b.String()
	}

	checkReads()
	for round := 0; round < 25; round++ {
		refresh := rng.Intn(3) > 0
		switch rng.Intn(4) {
		case 0: // append 1–4 rows, occasionally introducing a new label
			k := 1 + rng.Intn(4)
			rows := make([][]string, k)
			aux := make([]float64, k)
			for i := range rows {
				city := fuzzCities[rng.Intn(len(fuzzCities))]
				if rng.Intn(8) == 0 {
					city = fmt.Sprintf("newcity%d", rng.Intn(4))
				}
				rows[i] = []string{city, fuzzProds[rng.Intn(len(fuzzProds))], fuzzYears[rng.Intn(len(fuzzYears))]}
				aux[i] = float64(1 + rng.Intn(9))
				live = append(live, fuzzTuple{row: rows[i], aux: aux[i]})
			}
			mutate("/v1/append", rowJSON(rows, aux, refresh))
		case 1: // delete 1–2 live tuples (aux must match on a measure cube)
			k := 1 + rng.Intn(2)
			var rows [][]string
			var aux []float64
			for i := 0; i < k && len(live) > 20; i++ {
				j := rng.Intn(len(live))
				rows = append(rows, live[j].row)
				aux = append(aux, live[j].aux)
				live = append(live[:j], live[j+1:]...)
			}
			if rows == nil {
				continue
			}
			mutate("/v1/delete", rowJSON(rows, aux, refresh))
		case 2: // one batch mixing all three, as a router's worker receives its share
			req := mutationRequest{Refresh: refresh}
			for op := 0; op < 3+rng.Intn(4); op++ {
				kind := byte(rng.Intn(3)) // OpAppend, OpDelete, or an update pair
				if kind != ccubing.OpAppend {
					j := rng.Intn(len(live))
					req.Rows, req.Aux, req.Kinds = append(req.Rows, live[j].row), append(req.Aux, live[j].aux), append(req.Kinds, kind)
					live = append(live[:j], live[j+1:]...)
				}
				if kind != ccubing.OpDelete {
					nw := fuzzTuple{
						row: []string{fuzzCities[rng.Intn(len(fuzzCities))], fuzzProds[rng.Intn(len(fuzzProds))], fuzzYears[rng.Intn(len(fuzzYears))]},
						aux: float64(1 + rng.Intn(9)),
					}
					req.Rows, req.Aux, req.Kinds = append(req.Rows, nw.row), append(req.Aux, nw.aux), append(req.Kinds, kind+kind/2)
					live = append(live, nw)
				}
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			mutate(mutatePath, string(body))
		default: // update one tuple, cross-shard moves included
			j := rng.Intn(len(live))
			old := live[j]
			nw := fuzzTuple{
				row: []string{fuzzCities[rng.Intn(len(fuzzCities))], fuzzProds[rng.Intn(len(fuzzProds))], fuzzYears[rng.Intn(len(fuzzYears))]},
				aux: float64(1 + rng.Intn(9)),
			}
			live[j] = nw
			body := fmt.Sprintf(`{"old_rows":[["%s"]],"new_rows":[["%s"]],"old_aux":[%g],"new_aux":[%g]`,
				strings.Join(old.row, `","`), strings.Join(nw.row, `","`), old.aux, nw.aux)
			if refresh {
				body += `,"refresh":true`
			}
			body += `}`
			mutate("/v1/update", body)
		}
		if !refresh && rng.Intn(2) == 0 {
			mutate("/v1/refresh", "")
		}
		checkReads()
	}

	// The router's deliberate divergences: wildcard-dim0 slices and coded
	// mutations are rejected rather than silently wrong.
	if rc, rb := rawDo(t, routed, http.MethodGet, "/v1/slice?cell="+url.QueryEscape("*,pen,*"), "", ""); rc != http.StatusBadRequest {
		t.Fatalf("router wildcard slice: %d %s, want 400", rc, rb)
	}
	if rc, rb := rawDo(t, routed, http.MethodPost, "/v1/query", "application/json", `{"values":[0,-1,-1]}`); rc != http.StatusBadRequest {
		t.Fatalf("router coded query on labeled cube: %d %s, want 400", rc, rb)
	}
}
