package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccubing"
	"ccubing/internal/obs"
	"ccubing/internal/route"
)

// mutationBatch is the per-shard split of one routed mutation request.
type mutationBatch struct {
	rows   [][]string
	values [][]int32
	aux    []float64
}

// splitRows partitions a mutation batch by each row's dimension-0 owner.
// aux may be nil (measureless cubes); rows and values are the two request
// forms, exactly one non-nil.
func (rt *Router) splitRows(rows [][]string, values [][]int32, aux []float64) (map[int]*mutationBatch, error) {
	if (rows == nil) == (values == nil) {
		return nil, fmt.Errorf(`exactly one of "rows" and "values" is required`)
	}
	n := len(rows) + len(values) // one of the two is empty
	if aux != nil && len(aux) != n {
		return nil, fmt.Errorf("aux has %d values, want %d", len(aux), n)
	}
	out := make(map[int]*mutationBatch)
	add := func(owner int) *mutationBatch {
		b := out[owner]
		if b == nil {
			b = &mutationBatch{}
			out[owner] = b
		}
		return b
	}
	if rows != nil {
		if !rt.labeled {
			return nil, fmt.Errorf("cube has no dictionaries; send coded values")
		}
		for i, row := range rows {
			if len(row) != rt.dims {
				return nil, fmt.Errorf("row %d has %d components, want %d", i, len(row), rt.dims)
			}
			b := add(route.Owner(row[0], len(rt.shards)))
			b.rows = append(b.rows, row)
			if aux != nil {
				b.aux = append(b.aux, aux[i])
			}
		}
		return out, nil
	}
	if rt.labeled {
		return nil, fmt.Errorf("coded-values mutations cannot be routed: dictionary codes are shard-local; send labeled rows")
	}
	for i, row := range values {
		if len(row) != rt.dims {
			return nil, fmt.Errorf("row %d has %d values, want %d", i, len(row), rt.dims)
		}
		if row[0] < 0 {
			return nil, fmt.Errorf("row %d has negative value %d on routing dimension %s", i, row[0], rt.names[0])
		}
		b := add(route.Owner(strconv.Itoa(int(row[0])), len(rt.shards)))
		b.values = append(b.values, row)
		if aux != nil {
			b.aux = append(b.aux, aux[i])
		}
	}
	return out, nil
}

// shardsOf lists the batch owners in shard order, for deterministic
// iteration over a split.
func shardsOf(batches map[int]*mutationBatch, n int) []int {
	var idx []int
	for i := 0; i < n; i++ {
		if batches[i] != nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// partialMutation reports a scatter where some shard batches applied and
// others failed: the applied rows are buffered on their shards, so resending
// the whole batch would double-apply them.
func partialMutation(applied, total int, err error) error {
	return statusErrorf(http.StatusInternalServerError,
		"partial mutation: %d of %d shard batches applied and remain buffered on their shards — do not resend the whole batch: %v",
		applied, total, err)
}

// runMutation executes one call per owned batch concurrently, with the
// all-failed/partial-failure error contract above. ok holds the successful
// responses in shard order.
func runMutation[T any](rt *Router, op string, tr *obs.Trace, owners []int, call func(owner int) (T, error)) (ok []T, err error) {
	resps := make([]T, len(owners))
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, owner := range owners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := time.Now()
			resps[i], errs[i] = call(owner)
			rt.observeWorker(owner, tr, ws, errs[i])
		}()
	}
	wg.Wait()
	rt.met.workerCalls[op].Add(int64(len(owners)))
	var firstErr error
	applied := 0
	for i := range owners {
		if errs[i] == nil {
			ok = append(ok, resps[i])
			applied++
		} else if firstErr == nil {
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		if applied > 0 {
			return nil, partialMutation(applied, len(owners), firstErr)
		}
		return nil, firstErr
	}
	return ok, nil
}

// broadcastRefresh folds every worker's delta in, for mutation requests
// carrying "refresh": true: one logical refresh of the whole relation, so
// even workers that received no rows this call publish a new generation.
func (rt *Router) broadcastRefresh(tr *obs.Trace) ([]refreshResponse, error) {
	return scatterCall(rt, "refresh", tr, func(sh Shard) (refreshResponse, error) {
		return sh.Refresh()
	})
}

// mutationAck is the tail every mutation response shares: the backlog left
// buffered, the generation being served, and whether the call refreshed.
type mutationAck struct {
	backlog    int
	generation uint64
	refreshed  bool
}

// finishMutation folds the per-shard acks of one routed mutation into the
// response tail — total backlog, whether any shard refreshed, the oldest
// generation any of them serves — and, for a request carrying
// "refresh": true, broadcasts the refresh and reports the oldest generation
// it published. what names the buffered edits in the error that tells the
// client not to resend them.
func (rt *Router) finishMutation(acks []mutationAck, refresh bool, tr *obs.Trace, what string) (mutationAck, error) {
	var out mutationAck
	for i, a := range acks {
		out.backlog += a.backlog
		out.refreshed = out.refreshed || a.refreshed
		if i == 0 || a.generation < out.generation {
			out.generation = a.generation
		}
	}
	if refresh {
		rr, err := rt.broadcastRefresh(tr)
		if err != nil {
			return mutationAck{}, statusErrorf(http.StatusInternalServerError,
				"%s buffered but the triggered refresh failed on a shard (do not resend the batch): %v", what, err)
		}
		out.backlog = 0
		out.refreshed = true
		for i, r := range rr {
			if i == 0 || r.Generation < out.generation {
				out.generation = r.Generation
			}
		}
	}
	return out, nil
}

func (rt *Router) Append(req appendRequest) (appendResponse, error) {
	batches, err := rt.splitRows(req.Rows, req.Values, req.Aux)
	if err != nil {
		return appendResponse{}, err
	}
	owners := shardsOf(batches, len(rt.shards))
	oks, err := runMutation(rt, "append", req.trace, owners, func(owner int) (appendResponse, error) {
		b := batches[owner]
		return rt.shards[owner].Append(appendRequest{Rows: b.rows, Values: b.values, Aux: b.aux})
	})
	if err != nil {
		return appendResponse{}, err
	}
	appended := 0
	acks := make([]mutationAck, len(oks))
	for i, r := range oks {
		appended += r.Appended
		acks[i] = mutationAck{r.Backlog, r.Generation, r.Refreshed}
	}
	ack, err := rt.finishMutation(acks, req.Refresh, req.trace, "rows")
	if err != nil {
		return appendResponse{}, err
	}
	return appendResponse{Appended: appended, Backlog: ack.backlog, Generation: ack.generation, Refreshed: ack.refreshed}, nil
}

func (rt *Router) Delete(req appendRequest) (deleteResponse, error) {
	batches, err := rt.splitRows(req.Rows, req.Values, req.Aux)
	if err != nil {
		return deleteResponse{}, err
	}
	owners := shardsOf(batches, len(rt.shards))
	oks, err := runMutation(rt, "delete", req.trace, owners, func(owner int) (deleteResponse, error) {
		b := batches[owner]
		return rt.shards[owner].Delete(appendRequest{Rows: b.rows, Values: b.values, Aux: b.aux})
	})
	if err != nil {
		return deleteResponse{}, err
	}
	deleted := 0
	acks := make([]mutationAck, len(oks))
	for i, r := range oks {
		deleted += r.Deleted
		acks[i] = mutationAck{r.Backlog, r.Generation, r.Refreshed}
	}
	ack, err := rt.finishMutation(acks, req.Refresh, req.trace, "tombstones")
	if err != nil {
		return deleteResponse{}, err
	}
	return deleteResponse{Deleted: deleted, Backlog: ack.backlog, Generation: ack.generation, Refreshed: ack.refreshed}, nil
}

// shardUpdate is one worker's share of a routed update: same-shard pairs
// stay atomic update pairs; a pair whose old and new tuples hash apart is
// split into a tombstone on the old owner and an append on the new one —
// applied atomically within each worker's delta, but not across the two
// (a refresh racing between them can briefly serve neither tuple or both).
type shardUpdate struct {
	oldRows, newRows     [][]string
	oldValues, newValues [][]int32
	oldAux, newAux       []float64
	del, app             mutationBatch
}

func (rt *Router) Update(req updateRequest) (updateResponse, error) {
	labeled := req.OldRows != nil || req.NewRows != nil
	coded := req.OldValues != nil || req.NewValues != nil
	if labeled == coded {
		return updateResponse{}, fmt.Errorf(`exactly one of "old_rows"/"new_rows" and "old_values"/"new_values" is required`)
	}
	if labeled && !rt.labeled {
		return updateResponse{}, fmt.Errorf("cube has no dictionaries; send coded values")
	}
	if coded && rt.labeled {
		return updateResponse{}, fmt.Errorf("coded-values mutations cannot be routed: dictionary codes are shard-local; send labeled rows")
	}
	nPairs := len(req.OldRows) + len(req.OldValues)
	if len(req.NewRows)+len(req.NewValues) != nPairs {
		return updateResponse{}, fmt.Errorf("update wants matching old/new batches (%d old, %d new)",
			nPairs, len(req.NewRows)+len(req.NewValues))
	}
	if req.OldAux != nil && len(req.OldAux) != nPairs {
		return updateResponse{}, fmt.Errorf("old_aux has %d values, want %d", len(req.OldAux), nPairs)
	}
	if req.NewAux != nil && len(req.NewAux) != nPairs {
		return updateResponse{}, fmt.Errorf("new_aux has %d values, want %d", len(req.NewAux), nPairs)
	}

	// Component of a pair side, for routing.
	comp := func(row []string, vals []int32, i int) (string, error) {
		if labeled {
			if len(row) != rt.dims {
				return "", fmt.Errorf("row %d has %d components, want %d", i, len(row), rt.dims)
			}
			return row[0], nil
		}
		if len(vals) != rt.dims {
			return "", fmt.Errorf("row %d has %d values, want %d", i, len(vals), rt.dims)
		}
		if vals[0] < 0 {
			return "", fmt.Errorf("row %d has negative value %d on routing dimension %s", i, vals[0], rt.names[0])
		}
		return strconv.Itoa(int(vals[0])), nil
	}
	side := func(rows [][]string, vals [][]int32, i int) ([]string, []int32) {
		if labeled {
			return rows[i], nil
		}
		return nil, vals[i]
	}

	shards := make(map[int]*shardUpdate)
	at := func(owner int) *shardUpdate {
		u := shards[owner]
		if u == nil {
			u = &shardUpdate{}
			shards[owner] = u
		}
		return u
	}
	splitPairs := 0
	for i := 0; i < nPairs; i++ {
		oldRow, oldVals := side(req.OldRows, req.OldValues, i)
		newRow, newVals := side(req.NewRows, req.NewValues, i)
		oc, err := comp(oldRow, oldVals, i)
		if err != nil {
			return updateResponse{}, fmt.Errorf("old %w", err)
		}
		nc, err := comp(newRow, newVals, i)
		if err != nil {
			return updateResponse{}, fmt.Errorf("new %w", err)
		}
		oOwn, nOwn := route.Owner(oc, len(rt.shards)), route.Owner(nc, len(rt.shards))
		if oOwn == nOwn {
			u := at(oOwn)
			if labeled {
				u.oldRows = append(u.oldRows, oldRow)
				u.newRows = append(u.newRows, newRow)
			} else {
				u.oldValues = append(u.oldValues, oldVals)
				u.newValues = append(u.newValues, newVals)
			}
			if req.OldAux != nil {
				u.oldAux = append(u.oldAux, req.OldAux[i])
			}
			if req.NewAux != nil {
				u.newAux = append(u.newAux, req.NewAux[i])
			}
			continue
		}
		splitPairs++
		del, app := &at(oOwn).del, &at(nOwn).app
		if labeled {
			del.rows = append(del.rows, oldRow)
			app.rows = append(app.rows, newRow)
		} else {
			del.values = append(del.values, oldVals)
			app.values = append(app.values, newVals)
		}
		if req.OldAux != nil {
			del.aux = append(del.aux, req.OldAux[i])
		}
		if req.NewAux != nil {
			app.aux = append(app.aux, req.NewAux[i])
		}
	}

	owners := make([]int, 0, len(shards))
	for i := 0; i < len(rt.shards); i++ {
		if shards[i] != nil {
			owners = append(owners, i)
		}
	}
	type shardResult struct {
		mutationAck
		updated int
	}
	oks, err := runMutation(rt, "update", req.trace, owners, func(owner int) (shardResult, error) {
		u := shards[owner]
		sh := rt.shards[owner]
		var res shardResult
		if u.oldRows != nil || u.oldValues != nil {
			r, err := sh.Update(updateRequest{
				OldRows: u.oldRows, NewRows: u.newRows,
				OldValues: u.oldValues, NewValues: u.newValues,
				OldAux: u.oldAux, NewAux: u.newAux,
			})
			if err != nil {
				return res, err
			}
			res = shardResult{mutationAck{r.Backlog, r.Generation, r.Refreshed}, r.Updated}
		}
		if u.del.rows != nil || u.del.values != nil {
			r, err := sh.Delete(appendRequest{Rows: u.del.rows, Values: u.del.values, Aux: u.del.aux})
			if err != nil {
				return res, err
			}
			res.backlog, res.generation = r.Backlog, r.Generation
			res.refreshed = res.refreshed || r.Refreshed
		}
		if u.app.rows != nil || u.app.values != nil {
			r, err := sh.Append(appendRequest{Rows: u.app.rows, Values: u.app.values, Aux: u.app.aux})
			if err != nil {
				return res, err
			}
			res.backlog, res.generation = r.Backlog, r.Generation
			res.refreshed = res.refreshed || r.Refreshed
		}
		return res, nil
	})
	if err != nil {
		return updateResponse{}, err
	}
	updated := splitPairs
	acks := make([]mutationAck, len(oks))
	for i, r := range oks {
		updated += r.updated
		acks[i] = r.mutationAck
	}
	ack, err := rt.finishMutation(acks, req.Refresh, req.trace, "updates")
	if err != nil {
		return updateResponse{}, err
	}
	return updateResponse{Updated: updated, Backlog: ack.backlog, Generation: ack.generation, Refreshed: ack.refreshed}, nil
}

// parseStream reads a whole NDJSON mutation stream into a batch request.
// Routing needs every line parsed before anything is forwarded, so — unlike
// a single server, which buffers rows as it streams and keeps the prefix on
// a malformed line — a router rejects the entire stream if any line is bad.
func (rt *Router) parseStream(r io.Reader) (appendRequest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return appendRequest{}, err
	}
	var req appendRequest
	lineNo := 0
	for _, line := range strings.Split(string(data), "\n") {
		lineNo++
		if strings.TrimSpace(line) == "" {
			continue
		}
		labels, values, aux, err := ccubing.ParseNDJSONRow([]byte(line), rt.labeled)
		if err != nil {
			return appendRequest{}, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if rt.labeled {
			req.Rows = append(req.Rows, labels)
		} else {
			req.Values = append(req.Values, values)
		}
		if rt.measure {
			req.Aux = append(req.Aux, aux)
		}
	}
	return req, nil
}

func (rt *Router) AppendStream(r io.Reader) (appendResponse, error) {
	req, err := rt.parseStream(r)
	if err != nil {
		return appendResponse{}, err
	}
	if len(req.Rows) == 0 && len(req.Values) == 0 {
		return appendResponse{}, fmt.Errorf("empty NDJSON stream")
	}
	return rt.Append(req)
}

func (rt *Router) DeleteStream(r io.Reader) (deleteResponse, error) {
	req, err := rt.parseStream(r)
	if err != nil {
		return deleteResponse{}, err
	}
	if len(req.Rows) == 0 && len(req.Values) == 0 {
		return deleteResponse{}, fmt.Errorf("empty NDJSON stream")
	}
	return rt.Delete(req)
}

func (rt *Router) Refresh() (refreshResponse, error) {
	rr, err := rt.broadcastRefresh(nil)
	if err != nil {
		return refreshResponse{}, err
	}
	resp := refreshResponse{}
	for i, r := range rr {
		if i == 0 || r.Generation < resp.Generation {
			resp.Generation = r.Generation
		}
		resp.Appended += r.Appended
		resp.Deleted += r.Deleted
		resp.PartitionsRecomputed += r.PartitionsRecomputed
		resp.PartitionsTotal += r.PartitionsTotal
		resp.CellsRetained += r.CellsRetained
		resp.CellsRebuilt += r.CellsRebuilt
		if r.ElapsedMs > resp.ElapsedMs { // workers refresh in parallel
			resp.ElapsedMs = r.ElapsedMs
		}
	}
	return resp, nil
}
