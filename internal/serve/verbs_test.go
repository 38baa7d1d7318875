package serve

import (
	"bytes"
	"encoding/json"
	"io"
)

// The per-verb Shard methods that existed before Mutate, kept — here, for
// tests only — so the suites written against them run as written. Each takes
// the endpoint's own path: the body through readMutation, one Mutate, the
// verb's rendering of the answer.

func mutateAs[T any](sh Shard, verb, contentType string, body io.Reader) (out T, err error) {
	req, err := readMutation(verb, contentType, body)
	if err != nil {
		return out, err
	}
	resp, err := sh.Mutate(req)
	if err != nil {
		return out, err
	}
	return resp.render(verb).(T), nil
}

func jsonBody(v any) io.Reader {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return bytes.NewReader(b)
}

func (l *Local) Append(req appendRequest) (appendResponse, error) {
	return mutateAs[appendResponse](l, "append", "application/json", jsonBody(req))
}

func (rt *Router) Append(req appendRequest) (appendResponse, error) {
	return mutateAs[appendResponse](rt, "append", "application/json", jsonBody(req))
}

func (rt *Router) Delete(req appendRequest) (deleteResponse, error) {
	return mutateAs[deleteResponse](rt, "delete", "application/json", jsonBody(req))
}

func (rt *Router) Update(req updateRequest) (updateResponse, error) {
	return mutateAs[updateResponse](rt, "update", "application/json", jsonBody(req))
}

func (rt *Router) AppendStream(r io.Reader) (appendResponse, error) {
	return mutateAs[appendResponse](rt, "append", "application/x-ndjson", r)
}

func (rt *Router) DeleteStream(r io.Reader) (deleteResponse, error) {
	return mutateAs[deleteResponse](rt, "delete", "application/x-ndjson", r)
}
