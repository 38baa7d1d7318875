package serve

import (
	"strings"
	"testing"

	"ccubing"
	"ccubing/internal/fuzzbound"
)

// mutationSeeds are the bodies FuzzMutationBody starts from: the README's
// curl examples, the coded and measure forms, the internal endpoint's own
// body, and the shape errors — each as (verb index, NDJSON?, body).
var mutationSeeds = []struct {
	verb   byte
	ndjson bool
	body   string
}{
	{0, false, `{"rows":[["oslo","pen","2026"],["lisbon","ink","2026"]]}`},
	{0, true, "[\"oslo\",\"pen\",\"2026\"]\n"},
	{0, false, `{"rows":[["rome","pen","2026"]],"refresh":true}`},
	{1, false, `{"rows":[["oslo","pen","2026"]]}`},
	{2, false, `{"old_rows":[["lisbon","ink","2026"]],"new_rows":[["lisbon","pen","2026"]],"refresh":true}`},
	{1, true, "[\"rome\",\"pen\",\"2026\"]\n"},
	{0, false, `{"values":[[3,0,1],[0,0,0]],"aux":[1.5,2]}`},
	{0, true, "{\"values\":[0,0],\"aux\":4.5}\n\n{\"row\":[1,0],\"aux\":0.5}\n"},
	{2, false, `{"old_values":[[0,0]],"new_values":[[1,0]],"old_aux":[1],"new_aux":[2]}`},
	{3, false, `{"rows":[["a","b"],["a","c"],["a","d"]],"kinds":"AAID","refresh":true}`},
	// Shape errors.
	{0, false, `{"rows":[["oslo","pen"],["lisbon"]]}`},                       // ragged rows
	{2, false, `{"old_rows":[["a","b"]]}`},                                   // old_rows without new_rows
	{2, false, `{"old_rows":[["a"]],"new_rows":[["b"]],"old_aux":[1]}`},      // aux on one side only
	{0, false, `{"rows":[["a"]],"aux":[1,2,3]}`},                             // aux longer than the rows
	{1, false, `{"rows":[["a"]],"values":[[0]]}`},                            // both forms
	{2, false, `{"old_rows":[["a"]],"new_rows":[["b"]],"old_values":[[0]]}`}, // both update forms
	{0, true, "[\"a\",\"b\"]\n[0,1]\n"},                                      // lines of both forms
	{0, true, "{\"row\":[\"a\"],\"values\":[0]}\n"},
	{0, true, "\n\n"},
	{3, false, `{"rows":[["a"]],"kinds":"Aw=="}`}, // a new row without its old one
	{0, false, `{"rows":`},
}

var mutationVerbs = []string{"append", "delete", "update", "mutate"}

// FuzzMutationBody feeds arbitrary bytes to the one body reader, as each
// mutation endpoint and content type would. Property: an error, or a request
// whose op kinds are the endpoint's verb's — none for an append, one OpDelete
// per row of a delete, adjacent (old, new) pairs for an update — and that a
// router can split and a static cube refuse without a panic; and never an
// allocation beyond the size class of the bytes received.
func FuzzMutationBody(f *testing.F) {
	for _, s := range mutationSeeds {
		f.Add(s.verb, s.ndjson, []byte(s.body))
	}
	ds, err := ccubing.NewDataset([]string{"a", "b"}, [][]string{{"x", "p"}, {"y", "q"}})
	if err != nil {
		f.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{})
	if err != nil {
		f.Fatal(err)
	}
	// Static twins of one cube as both workers: every share reaches a shard
	// and is refused there (409), so nothing accumulates across executions.
	static := loadCube(f, saveTo(f, cube))
	rt, err := NewRouter([]Shard{NewLocal(static), NewLocal(static)})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, verb byte, ndjson bool, data []byte) {
		v := mutationVerbs[int(verb)%len(mutationVerbs)]
		ct := "application/json"
		if ndjson {
			ct = "application/x-ndjson"
		}
		var req mutationRequest
		var err error
		fuzzbound.Check(t, len(data), func() { req, err = readMutation(v, ct, strings.NewReader(string(data))) })
		if err != nil {
			return
		}
		for i, k := range req.Kinds {
			if want := map[string]byte{"delete": ccubing.OpDelete, "update": ccubing.OpUpdateOld + byte(i&1)}; v != "mutate" && k != want[v] {
				t.Fatalf("%s body %q: op %d has kind %d", v, data, i, k)
			}
		}
		if wantKinds := map[string]int{"delete": req.Len(), "update": req.Len()}; v != "mutate" && len(req.Kinds) != wantKinds[v] {
			t.Fatalf("%s body %q: %d rows, %d kinds", v, data, req.Len(), len(req.Kinds))
		}
		if _, err := rt.Mutate(req); err == nil && req.Len() > 0 {
			t.Fatalf("%s body %q: a static topology buffered %d rows", v, data, req.Len())
		}
	})
}
