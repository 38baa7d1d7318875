package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"ccubing"
	"ccubing/internal/obs"
)

// mutationRequest is what every mutation is below the HTTP body: one batch of
// ops in the delta log's shape (see ccubing.Mutation), plus whether to fold
// the delta in before responding. /v1/append, /v1/delete and /v1/update parse
// into it (readMutation); it is the JSON body of mutatePath as it stands.
type mutationRequest struct {
	ccubing.Mutation
	Refresh bool `json:"refresh,omitempty"`

	// auxPerLine marks Aux as read from NDJSON lines: there a line without
	// "aux" reads as 0 and a cube without a measure ignores the column, so the
	// shard that knows the cube drops Aux instead of rejecting it.
	auxPerLine bool
	trace      *obs.Trace // in-process stage accounting; see queryRequest.trace
}

// mutationResponse answers a mutationRequest. Applied counts the rows
// buffered, an update pair once; the public endpoints name it after their verb
// (render).
type mutationResponse struct {
	Applied    int    `json:"applied"`
	Backlog    int    `json:"backlog"`
	Generation uint64 `json:"generation"`
	// Refreshed reports that the call itself published a new generation
	// (explicit "refresh": true or a crossed AutoRefresh row threshold).
	Refreshed bool `json:"refreshed"`
}

// render is the body the endpoint of the given verb answers with.
func (r mutationResponse) render(verb string) any {
	switch verb {
	case "append":
		return appendResponse{r.Applied, r.Backlog, r.Generation, r.Refreshed}
	case "delete":
		return deleteResponse{r.Applied, r.Backlog, r.Generation, r.Refreshed}
	case "update":
		return updateResponse{r.Applied, r.Backlog, r.Generation, r.Refreshed}
	}
	return r
}

// mutatePath is the internal worker endpoint behind a router's Dial: one
// mutationRequest in, one mutationResponse out, so a worker validates and
// buffers its whole share of a routed mutation in one step. Not part of the
// public API; router and workers must be the same build.
const mutatePath = "/internal/v1/mutate"

// readMutation parses the body of the mutation endpoint of the given verb:
// "append" and "delete" take an appendRequest or, under an NDJSON content
// type, one tuple per line (see ccubing.AppendNDJSON); "update" takes an
// updateRequest; "mutate" (mutatePath) the mutationRequest itself. Either
// form is read whole before anything is applied. Only what the body's own
// shape decides is checked here — the rest is the Shard's to validate.
func readMutation(verb, contentType string, body io.Reader) (req mutationRequest, err error) {
	switch {
	case verb == "mutate":
		return req, decodeJSON(body, &req)
	case verb == "update":
		var in updateRequest
		if err = decodeJSON(body, &in); err == nil {
			req.Refresh = in.Refresh
			req.Mutation, err = ccubing.UpdateMutation(in.OldRows, in.NewRows, in.OldValues, in.NewValues, in.OldAux, in.NewAux)
		}
		return req, err
	case strings.Contains(contentType, "ndjson"):
		req.auxPerLine = true
		err = ccubing.ScanNDJSON(body, 0, func(b ccubing.Mutation) error {
			req.Mutation = b
			return nil
		})
		if err == nil && req.Len() == 0 {
			err = fmt.Errorf("empty NDJSON stream")
		}
	default:
		var in appendRequest
		if err = decodeJSON(body, &in); err == nil && (in.Rows == nil) == (in.Values == nil) {
			err = fmt.Errorf(`exactly one of "rows" and "values" is required`)
		}
		req.Mutation, req.Refresh = ccubing.Mutation{Rows: in.Rows, Values: in.Values, Aux: in.Aux}, in.Refresh
	}
	if verb == "delete" {
		req.Mutation = req.Of(ccubing.OpDelete)
	}
	return req, err
}

// handleMutation serves the mutation endpoint of the given verb: each is one
// parse, one Shard.Mutate, and the verb's rendering of the answer.
func (s *Server) handleMutation(verb string) func(http.ResponseWriter, *http.Request, *obs.Trace) {
	return func(w http.ResponseWriter, r *http.Request, tr *obs.Trace) {
		if !s.allowMutation(w) {
			return
		}
		req, err := readMutation(verb, r.Header.Get("Content-Type"), http.MaxBytesReader(w, r.Body, maxAppendBody))
		if err == nil {
			req.trace = tr
			tr.Note = fmt.Sprintf("rows=%d", req.Row(req.Len()))
			var resp mutationResponse
			if resp, err = s.shard.Mutate(req); err == nil {
				writeJSON(w, http.StatusOK, resp.render(verb))
				return
			}
		}
		writeError(w, httpStatus(err), err)
	}
}
