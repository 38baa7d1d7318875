package serve

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"ccubing"
)

// TestDialReusesConnection pins the keep-alive contract of a Dial'd worker:
// however an answer is framed — JSON that net/http sent chunked because it
// outgrew the 2 KB write buffer (a wide slice, a dimension-0-exact aggregate
// without top_k), a binary partial, an error — the body is read to its end
// before it is closed, so the transport keeps the connection. A JSON decoder
// alone stops at the closing brace, and every large answer then cost a new
// TCP connection.
func TestDialReusesConnection(t *testing.T) {
	ds, err := ccubing.Synthetic(ccubing.SyntheticConfig{T: 3000, D: 4, C: 12, Skew: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(NewServer(NewLocal(cube), Config{}).Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	worker, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 10
	for i := 0; i < rounds; i++ {
		sl, err := worker.Slice(queryRequest{Cell: []string{"3", "*", "*", "*"}, Limit: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if len(sl.Cells) < 100 {
			t.Fatalf("slice answered %d cells; the fixture wants an answer net/http sends chunked", len(sl.Cells))
		}
		agg, err := worker.Aggregate(aggregateRequest{Where: []string{"3", "*", "*", "*"}, GroupBy: []string{"dim1", "dim2"}})
		if err != nil {
			t.Fatal(err)
		}
		p, err := worker.AggregatePartial(aggregateRequest{GroupBy: []string{"dim1", "dim2", "dim3"}})
		if err != nil {
			t.Fatal(err)
		}
		if len(agg.Rows) < 50 || p.rows() < 1000 {
			t.Fatalf("aggregates answered %d and %d rows; the fixture wants large answers", len(agg.Rows), p.rows())
		}
		if _, err := worker.Aggregate(aggregateRequest{GroupBy: []string{"nope"}}); err == nil || httpStatus(err) != http.StatusBadRequest {
			t.Fatalf("bad group-by: %v, want the worker's 400", err)
		}
		if _, err := worker.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d rounds of large answers opened %d connections, want 1", rounds, n)
	}
}
