package serve

// The write half of the routed-vs-single suite. fuzzEquivalence (labels, a
// measure, Dial'd workers) interleaves mutations with its reads; this one
// turns the other knobs — coded relations, no measure, in-process workers —
// and sends every body shape the one write path takes: the three public
// endpoints as JSON, append and delete as NDJSON, and batches mixing appends,
// deletes and update pairs (same-owner and cross-owner) through the internal
// endpoint. Router and single server get the same bytes, both refresh, and
// every read must then match byte for byte.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ccubing"
	"ccubing/internal/route"
)

func TestRouterWriteEquivalenceFuzz(t *testing.T) {
	for _, labeled := range []bool{true, false} {
		for _, measure := range []bool{true, false} {
			for _, dialed := range []bool{true, false} {
				t.Run(fmt.Sprintf("labeled=%v/measure=%v/dialed=%v", labeled, measure, dialed), func(t *testing.T) {
					fuzzWriteEquivalence(t, labeled, measure, dialed)
				})
			}
		}
	}
}

func fuzzWriteEquivalence(t *testing.T, labeled, measure, dialed bool) {
	const shards = 2
	seed := int64(5000)
	for i, on := range []bool{labeled, measure, dialed} {
		if on {
			seed += 1 << i
		}
	}
	rng := rand.New(rand.NewSource(seed))
	cards := []int{len(fuzzCities), len(fuzzProds), len(fuzzYears)}
	pools := [][]string{fuzzCities, fuzzProds, fuzzYears}
	// A tuple is its per-dimension indices; on the wire a component is the
	// pool's label on a labeled relation, the index itself on a coded one.
	type tuple struct {
		idx []int32
		aux float64
	}
	comp := func(d int, v int32) string {
		if labeled {
			return pools[d][v]
		}
		return strconv.Itoa(int(v))
	}
	draw := func() tuple {
		tp := tuple{idx: make([]int32, len(cards)), aux: float64(1 + rng.Intn(9))}
		for d, c := range cards {
			tp.idx[d] = int32(rng.Intn(c))
		}
		return tp
	}
	var live []tuple
	for i := 0; i < 120; i++ {
		live = append(live, draw())
	}

	names := []string{"city", "product", "year"}
	var ds *ccubing.Dataset
	var err error
	if labeled {
		rows := make([][]string, len(live))
		for i, tp := range live {
			rows[i] = []string{comp(0, tp.idx[0]), comp(1, tp.idx[1]), comp(2, tp.idx[2])}
		}
		ds, err = ccubing.NewDataset(names, rows)
	} else {
		rows := make([][]int32, len(live))
		for i, tp := range live {
			rows[i] = tp.idx
		}
		ds, err = ccubing.NewDatasetFromValues(names, rows)
	}
	if err != nil {
		t.Fatal(err)
	}
	opts := ccubing.Options{MinSup: 1}
	if measure {
		aux := make([]float64, len(live))
		for i, tp := range live {
			aux[i] = tp.aux
		}
		if err := ds.SetMeasure(aux); err != nil {
			t.Fatal(err)
		}
		opts.Measure = ccubing.MeasureSum
	}
	serve := func(sh Shard) *httptest.Server {
		ts := httptest.NewServer(NewServer(sh, Config{}).Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	global, err := ccubing.Materialize(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	single := serve(NewLocal(global))
	workers := make([]Shard, shards)
	for i := range workers {
		sub, err := ds.Shard(0, i, shards)
		if err != nil {
			t.Fatal(err)
		}
		cube, err := ccubing.Materialize(sub, opts)
		if err != nil {
			t.Fatal(err)
		}
		l := NewLocal(cube)
		l.SetShard(i, shards)
		workers[i] = l
		if dialed {
			if workers[i], err = Dial(serve(l).URL); err != nil {
				t.Fatal(err)
			}
		}
	}
	router, err := NewRouter(workers)
	if err != nil {
		t.Fatal(err)
	}
	routed := serve(router)

	// One batch of ops drawn against the relation as the ops before them left
	// it. kinds is what each op may be: OpAppend, OpDelete, OpUpdateOld (a pair).
	sameOwner, crossOwner := 0, 0
	batch := func(n int, kinds ...byte) ccubing.Mutation {
		var b ccubing.Mutation
		add := func(tp tuple, kind byte) {
			if labeled {
				b.Rows = append(b.Rows, []string{comp(0, tp.idx[0]), comp(1, tp.idx[1]), comp(2, tp.idx[2])})
			} else {
				b.Values = append(b.Values, tp.idx)
			}
			if measure {
				b.Aux = append(b.Aux, tp.aux)
			}
			b.Kinds = append(b.Kinds, kind)
		}
		for op := 0; op < n; op++ {
			kind := kinds[rng.Intn(len(kinds))]
			var old tuple
			if kind != ccubing.OpAppend {
				j := rng.Intn(len(live))
				old = live[j]
				add(old, kind)
				live = append(live[:j], live[j+1:]...)
			}
			if kind != ccubing.OpDelete {
				nw := draw()
				add(nw, kind+kind/2)
				live = append(live, nw)
				if kind == ccubing.OpUpdateOld {
					if route.Owner(comp(0, old.idx[0]), shards) == route.Owner(comp(0, nw.idx[0]), shards) {
						sameOwner++
					} else {
						crossOwner++
					}
				}
			}
		}
		return b
	}
	// The body shapes. Only the internal endpoint's carries kinds; the public
	// ones say them with their path.
	rowsJSON := func(b ccubing.Mutation) string {
		b.Kinds = nil
		body, _ := json.Marshal(b)
		return string(body)
	}
	ndjson := func(b ccubing.Mutation) string {
		var sb strings.Builder
		for i := 0; i < b.Len(); i++ {
			var row any
			if labeled {
				row = b.Rows[i]
			} else {
				row = b.Values[i]
			}
			line := map[string]any{"row": row}
			if measure {
				line["aux"] = b.Aux[i]
			}
			body, _ := json.Marshal(line)
			sb.Write(body)
			sb.WriteString("\n\n") // blank lines are skipped
		}
		return sb.String()
	}
	pairsJSON := func(b ccubing.Mutation) string {
		var in updateRequest
		for i := 0; i < b.Len(); i += 2 {
			if labeled {
				in.OldRows, in.NewRows = append(in.OldRows, b.Rows[i]), append(in.NewRows, b.Rows[i+1])
			} else {
				in.OldValues, in.NewValues = append(in.OldValues, b.Values[i]), append(in.NewValues, b.Values[i+1])
			}
			if measure {
				in.OldAux, in.NewAux = append(in.OldAux, b.Aux[i]), append(in.NewAux, b.Aux[i+1])
			}
		}
		body, _ := json.Marshal(in)
		return string(body)
	}
	// post sends one request to both servers. Nothing is pending on either
	// side before a round's mutation, so its two answers must agree on
	// everything but the generation (a worker with nothing to fold keeps its
	// own); a refresh's describe two different stores.
	post := func(path, contentType, body string) {
		t.Helper()
		sc, sb := rawDo(t, single, http.MethodPost, path, contentType, body)
		rc, rb := rawDo(t, routed, http.MethodPost, path, contentType, body)
		if sc != http.StatusOK || rc != http.StatusOK {
			t.Fatalf("%s %s: single %d %s, routed %d %s", path, body, sc, sb, rc, rb)
		}
		var s, r map[string]any
		if json.Unmarshal(sb, &s) != nil || json.Unmarshal(rb, &r) != nil {
			t.Fatalf("%s: undecodable answers %s / %s", path, sb, rb)
		}
		delete(s, "generation")
		delete(r, "generation")
		if path != "/v1/refresh" && !reflect.DeepEqual(s, r) {
			t.Fatalf("%s %s: single %s, routed %s", path, body, sb, rb)
		}
	}
	compare := func(path string) {
		t.Helper()
		sc, sb := rawDo(t, single, http.MethodGet, path, "", "")
		rc, rb := rawDo(t, routed, http.MethodGet, path, "", "")
		if sc != http.StatusOK || rc != sc || !bytes.Equal(sb, rb) {
			t.Fatalf("divergence on %s:\n single: %d %s\n routed: %d %s", path, sc, sb, rc, rb)
		}
	}
	cell := func(bind0 bool) string {
		parts := make([]string, len(cards))
		for d, c := range cards {
			parts[d] = "*"
			if rng.Intn(3) > 0 || (d == 0 && bind0) {
				parts[d] = comp(d, int32(rng.Intn(c)))
			}
		}
		return url.QueryEscape(strings.Join(parts, ","))
	}
	groupBys := []string{"", "city", "product,year", "city,year", "city,product,year"}

	for round := 0; round < 16; round++ {
		refresh := rng.Intn(2) == 0
		switch round % 6 {
		case 0:
			b := batch(1+rng.Intn(5), ccubing.OpAppend)
			post("/v1/append", "application/json", rowsJSON(b))
		case 1:
			b := batch(1+rng.Intn(3), ccubing.OpDelete)
			post("/v1/delete", "application/json", rowsJSON(b))
		case 2:
			b := batch(2+rng.Intn(4), ccubing.OpUpdateOld)
			post("/v1/update", "application/json", pairsJSON(b))
		case 3:
			b := batch(1+rng.Intn(5), ccubing.OpAppend)
			post("/v1/append", "application/x-ndjson", ndjson(b))
		case 4:
			b := batch(1+rng.Intn(3), ccubing.OpDelete)
			post("/v1/delete", "application/x-ndjson", ndjson(b))
		default:
			b := batch(4+rng.Intn(8), ccubing.OpAppend, ccubing.OpDelete, ccubing.OpUpdateOld)
			body, _ := json.Marshal(mutationRequest{Mutation: b, Refresh: refresh})
			post(mutatePath, "application/json", string(body))
		}
		post("/v1/refresh", "", "")
		for q := 0; q < 10; q++ {
			compare("/v1/query?cell=" + cell(false))
		}
		for q := 0; q < 3; q++ {
			compare("/v1/slice?cell=" + cell(true))
		}
		for q := 0; q < 5; q++ {
			v := url.Values{}
			if gb := groupBys[rng.Intn(len(groupBys))]; gb != "" {
				v.Set("group_by", gb)
			}
			if rng.Intn(2) == 0 {
				v.Set("where", strings.Join([]string{"*", comp(1, 0) + "|" + comp(1, int32(1+rng.Intn(3))), "*"}, ","))
			}
			if rng.Intn(2) == 0 {
				v.Set("top_k", fmt.Sprint(1+rng.Intn(6)))
			}
			if measure && rng.Intn(2) == 0 {
				v.Set("order_by", "aux")
			}
			compare("/v1/aggregate?" + v.Encode())
		}
	}
	if sameOwner == 0 || crossOwner == 0 {
		t.Fatalf("fixture: %d same-owner and %d cross-owner update pairs; both must occur", sameOwner, crossOwner)
	}
}
