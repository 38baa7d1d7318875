package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ccubing"
	"ccubing/internal/obs"
)

// Mutate splits the batch by each row's dimension-0 owner, in order, and gives
// every owning worker its share in exactly one call — so a share is validated
// and buffered whole or not at all. An update pair whose old and new tuples
// hash apart becomes a tombstone in the old owner's share and an append in the
// new owner's: atomic within each worker's delta, not across the two (a
// refresh racing between them can briefly serve neither tuple or both).
func (rt *Router) Mutate(req mutationRequest) (mutationResponse, error) {
	switch {
	case req.Rows != nil && !rt.labeled:
		return mutationResponse{}, fmt.Errorf("cube has no dictionaries; send coded values")
	case req.Values != nil && rt.labeled:
		return mutationResponse{}, fmt.Errorf("coded-values mutations cannot be routed: dictionary codes are shard-local; send labeled rows")
	}
	if req.auxPerLine && !rt.measure {
		req.Aux = nil
	}
	if _, err := req.Check(); err != nil {
		return mutationResponse{}, err
	}
	shares := make([]*mutationRequest, len(rt.shards))
	last := -1 // owner of the previous op: of an OpUpdateNew's old row
	for i := 0; i < req.Len(); i++ {
		owner, err := rt.rowOwner(&req.Mutation, i)
		if err != nil {
			return mutationResponse{}, err
		}
		kind := req.Kind(i)
		if kind == ccubing.OpUpdateNew && owner != last {
			kinds := shares[last].Kinds
			kinds[len(kinds)-1], kind = ccubing.OpDelete, ccubing.OpAppend
		}
		sh := shares[owner]
		if sh == nil {
			sh = &mutationRequest{trace: req.trace} // the request ID rides along
			shares[owner] = sh
		}
		if req.Rows != nil {
			sh.Rows = append(sh.Rows, req.Rows[i])
		} else {
			sh.Values = append(sh.Values, req.Values[i])
		}
		if req.Aux != nil {
			sh.Aux = append(sh.Aux, req.Aux[i])
		}
		sh.Kinds = append(sh.Kinds, kind)
		last = owner
	}
	acks, err := rt.scatterShares(shares, req.trace)
	if err != nil {
		return mutationResponse{}, err
	}
	// Every share is all-or-nothing and every one applied: the whole batch is
	// buffered.
	resp := mutationResponse{Applied: req.Row(req.Len())}
	for i, a := range acks {
		resp.Backlog += a.Backlog
		resp.Refreshed = resp.Refreshed || a.Refreshed
		if i == 0 || a.Generation < resp.Generation {
			resp.Generation = a.Generation
		}
	}
	if req.Refresh {
		// One logical refresh of the whole relation: workers that received no
		// rows this call publish a new generation too.
		rr, err := rt.refresh(req.trace)
		if err != nil {
			return mutationResponse{}, statusErrorf(http.StatusInternalServerError,
				"%d rows buffered but the triggered refresh failed on a shard (do not resend the batch): %v", resp.Applied, err)
		}
		resp.Backlog, resp.Generation, resp.Refreshed = 0, rr.Generation, true
	}
	return resp, nil
}

// rowOwner returns the worker owning row i: the one its dimension-0 component
// hashes to. Coded components route by their decimal rendering, like queries.
func (rt *Router) rowOwner(b *ccubing.Mutation, i int) (int, error) {
	if b.Rows != nil {
		if len(b.Rows[i]) != rt.dims {
			return 0, fmt.Errorf("row %d has %d components, want %d", b.Row(i), len(b.Rows[i]), rt.dims)
		}
		return rt.ownerIndex(b.Rows[i][0]), nil
	}
	row := b.Values[i]
	if len(row) != rt.dims {
		return 0, fmt.Errorf("row %d has %d values, want %d", b.Row(i), len(row), rt.dims)
	}
	if row[0] < 0 {
		return 0, fmt.Errorf("row %d has negative value %d on routing dimension %s", b.Row(i), row[0], rt.names[0])
	}
	return rt.ownerIndex(strconv.Itoa(int(row[0]))), nil
}

// scatterShares sends every non-nil share to its worker, concurrently, one
// call each, and returns the answers in shard order. When every share failed
// the first error comes back as the worker gave it; when some applied it is a
// 500 that says so — those are buffered on their workers, and resending the
// whole batch would apply them twice.
func (rt *Router) scatterShares(shares []*mutationRequest, tr *obs.Trace) ([]mutationResponse, error) {
	acks := make([]mutationResponse, len(shares))
	errs := make([]error, len(shares))
	var wg sync.WaitGroup
	sent := 0
	for owner, share := range shares {
		if share == nil {
			continue
		}
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			acks[owner], errs[owner] = rt.shards[owner].Mutate(*share)
			rt.observeWorker(owner, tr, start, errs[owner])
		}()
	}
	wg.Wait()
	rt.met.workerCalls["mutate"].Add(int64(sent))
	var firstErr error
	var applied []mutationResponse
	for owner, share := range shares {
		switch {
		case share == nil:
		case errs[owner] == nil:
			applied = append(applied, acks[owner])
		case firstErr == nil:
			firstErr = errs[owner]
		}
	}
	if firstErr != nil && len(applied) > 0 {
		return nil, statusErrorf(http.StatusInternalServerError,
			"partial mutation: %d of %d shard batches applied and remain buffered on their shards — do not resend the whole batch: %v",
			len(applied), sent, firstErr)
	}
	return applied, firstErr
}

func (rt *Router) Refresh() (refreshResponse, error) { return rt.refresh(nil) }

// refresh folds every worker's delta in and sums what they report.
func (rt *Router) refresh(tr *obs.Trace) (refreshResponse, error) {
	rr, err := scatterCall(rt, "refresh", tr, func(sh Shard) (refreshResponse, error) {
		return sh.Refresh()
	})
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
