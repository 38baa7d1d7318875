package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"ccubing/internal/obs"
)

// httpShard is a Shard backed by a remote ccserve worker over its own HTTP
// API: exactly what a router needs to stand in front of workers it did not
// start. Responses decode into the shared wire types and re-encode on the
// router's side of the wire byte-identically (encoding/json's shortest
// round-trip float form is stable through a decode/encode cycle), which is
// what keeps routed single-shard answers indistinguishable from the worker's
// own.
type httpShard struct {
	base   string // "http://host:port", no trailing slash
	client *http.Client
}

// Dial wraps a worker's base URL as a Shard. The scheme defaults to http://
// when absent; no request is made — NewRouter's metadata fetch is the
// reachability check.
func Dial(baseURL string) (Shard, error) {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("bad shard URL %q: %w", baseURL, err)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("bad shard URL %q: no host", baseURL)
	}
	return &httpShard{
		base:   strings.TrimRight(u.String(), "/"),
		client: &http.Client{Timeout: 60 * time.Second},
	}, nil
}

// Addr reports the worker's base URL — the router's stats name each worker
// entry with it.
func (h *httpShard) Addr() string { return h.base }

// traceID extracts the request ID to forward; "" (no header sent) when the
// call is not part of a traced request.
func traceID(tr *obs.Trace) string {
	if tr == nil {
		return ""
	}
	return tr.ID
}

// do runs one request against the worker and hands a 200 answer to decode. A
// non-empty rid rides the X-CCubing-Request-ID header, so the worker joins
// the router's trace instead of minting a fresh ID. A transport failure is a
// 502 (the worker is unreachable, not wrong); a non-200 worker answer
// decodes back into a StatusError carrying the worker's status and message,
// so shard-side validation and conflicts surface to the router's caller
// unchanged.
func (h *httpShard) do(method, path string, body io.Reader, contentType, rid string, decode func(io.Reader) error) error {
	req, err := http.NewRequest(method, h.base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if rid != "" {
		req.Header.Set(obs.RequestIDHeader, rid)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return statusErrorf(http.StatusBadGateway, "shard %s: %v", h.base, err)
	}
	defer closeDrained(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
			e.Error = fmt.Sprintf("shard %s: HTTP %d", h.base, resp.StatusCode)
		}
		return &StatusError{Code: resp.StatusCode, Msg: e.Error}
	}
	if err := decode(resp.Body); err != nil {
		return statusErrorf(http.StatusBadGateway, "shard %s: bad response: %v", h.base, err)
	}
	return nil
}

// closeDrained reads a response body to EOF before closing it. A JSON
// decoder stops at the value's closing brace; the transport reuses a
// connection only once it has seen the end of the body (the newline and the
// final chunk of anything sent chunked), and otherwise drops it — one TCP
// connection per large answer. The read is bounded: a body with more left
// than this is cheaper to abandon than to finish.
func closeDrained(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, 256<<10)
	body.Close()
}

// intoJSON decodes a worker's JSON answer into out.
func intoJSON(out any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(out) }
}

// post sends in as a JSON body and hands the answer to decode.
func (h *httpShard) post(path, rid string, in any, decode func(io.Reader) error) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return h.do(http.MethodPost, path, bytes.NewReader(b), "application/json", rid, decode)
}

func (h *httpShard) postJSON(path, rid string, in, out any) error {
	return h.post(path, rid, in, intoJSON(out))
}

func (h *httpShard) Meta() (cubeResponse, error) {
	var out cubeResponse
	err := h.do(http.MethodGet, "/v1/cube", nil, "", "", intoJSON(&out))
	return out, err
}

func (h *httpShard) Query(req queryRequest) (queryResponse, error) {
	var out queryResponse
	err := h.postJSON("/v1/query", traceID(req.trace), req, &out)
	return out, err
}

func (h *httpShard) Slice(req queryRequest) (sliceResponse, error) {
	var out sliceResponse
	err := h.postJSON("/v1/slice", traceID(req.trace), req, &out)
	return out, err
}

func (h *httpShard) Aggregate(req aggregateRequest) (aggregateResponse, error) {
	return finishAggregate(h.AggregatePartial, req)
}

// AggregatePartial fetches the worker's partial frame. There is no JSON
// fallback: a worker that does not know the endpoint is another build, and
// router and workers must be the same one.
func (h *httpShard) AggregatePartial(req aggregateRequest) (*aggPartial, error) {
	var p *aggPartial
	err := h.post(partialPath, traceID(req.trace), req, func(r io.Reader) error {
		var frame bytes.Buffer
		if _, err := frame.ReadFrom(io.LimitReader(r, maxFrameBytes+1)); err != nil {
			return err
		}
		if frame.Len() > maxFrameBytes {
			return fmt.Errorf("partial frame exceeds %d bytes", maxFrameBytes)
		}
		var err error
		p, err = decodeFrame(frame.Bytes())
		return err
	})
	return p, h.sameBuild(partialPath, err)
}

// sameBuild names what a worker's 404 or 405 on an internal endpoint means:
// it is another build, and router and workers must be the same one.
func (h *httpShard) sameBuild(path string, err error) error {
	var se *StatusError
	if errors.As(err, &se) && (se.Code == http.StatusNotFound || se.Code == http.StatusMethodNotAllowed) {
		return statusErrorf(http.StatusBadGateway,
			"shard %s has no %s endpoint: router and workers must run the same build", h.base, path)
	}
	return err
}

func (h *httpShard) Mutate(req mutationRequest) (mutationResponse, error) {
	var out mutationResponse
	err := h.postJSON(mutatePath, traceID(req.trace), req, &out)
	return out, h.sameBuild(mutatePath, err)
}

func (h *httpShard) Refresh() (refreshResponse, error) {
	var out refreshResponse
	err := h.do(http.MethodPost, "/v1/refresh", nil, "", "", intoJSON(&out))
	return out, err
}

func (h *httpShard) Stats() (statsResponse, error) {
	var out statsResponse
	err := h.do(http.MethodGet, "/v1/stats", nil, "", "", intoJSON(&out))
	return out, err
}
