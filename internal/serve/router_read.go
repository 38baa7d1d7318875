package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ccubing"
)

// avgKind reports an avg-measure topology. Presented means do not combine
// across shards, so avg merges go through the wire rows' AuxRaw stored sums;
// errNoAuxRaw is the answer when a worker's avg row arrives without one.
func (rt *Router) avgKind() bool {
	return rt.kind == ccubing.MeasureAvg.String()
}

// errNoAuxRaw reports a malformed worker answer: an avg row that cannot be
// merged because it lacks the stored sum every avg answer carries.
func errNoAuxRaw() *StatusError {
	return statusErrorf(http.StatusBadGateway, "shard answered an avg query without aux_raw")
}

func (rt *Router) Query(req queryRequest) (queryResponse, error) {
	comp, scatter, err := rt.routeQuery(req)
	if err != nil {
		return queryResponse{}, err
	}
	if !scatter {
		return routedCall(rt, "query", req.trace, rt.ownerIndex(comp), func(sh Shard) (queryResponse, error) {
			return sh.Query(req)
		})
	}
	resps, err := scatterCall(rt, "query", req.trace, func(sh Shard) (queryResponse, error) {
		return sh.Query(req)
	})
	if err != nil {
		return queryResponse{}, err
	}
	mstart := time.Now()
	defer rt.observeMerge(req.trace, mstart)
	var found []queryResponse
	for _, r := range resps {
		if r.Found {
			found = append(found, r)
		}
	}
	if len(found) == 0 {
		return queryResponse{Found: false}, nil
	}
	if len(found) == 1 {
		// One shard holds every matching tuple: its answer IS the global one
		// (count, closure and measure alike, whatever the measure kind).
		return found[0], nil
	}
	merged := queryResponse{Found: true}
	for _, r := range found {
		merged.Count += r.Count
	}
	// The closure is the component-wise meet: a dimension stays fixed only if
	// every shard's matching tuples agree on the same label — exactly the
	// global all-tuples-agree condition, since the shards partition them.
	closure := append([]string(nil), found[0].Closure...)
	for _, r := range found[1:] {
		for d := range closure {
			if d >= len(r.Closure) || closure[d] != r.Closure[d] {
				closure[d] = "*"
			}
		}
	}
	merged.Closure = closure
	if rt.measure {
		aux := 0.0
		for i, r := range found {
			v := 0.0
			switch {
			case rt.avgKind():
				// Merge the stored sums, not the presented means.
				if r.AuxRaw == nil {
					return queryResponse{}, errNoAuxRaw()
				}
				v = *r.AuxRaw
			case r.Aux != nil:
				v = *r.Aux
			}
			switch {
			case i == 0:
				aux = v
			case rt.kind == ccubing.MeasureMin.String():
				aux = min(aux, v)
			case rt.kind == ccubing.MeasureMax.String():
				aux = max(aux, v)
			default: // sum and avg (the cube's stored measure is a per-cell sum)
				aux += v
			}
		}
		if rt.avgKind() {
			// The same stored/count division a single worker performs, so the
			// merged mean is byte-identical to an unsharded store's.
			mean := aux / float64(merged.Count)
			merged.Aux = &mean
			merged.AuxRaw = &aux
		} else {
			merged.Aux = &aux
		}
	}
	return merged, nil
}

func (rt *Router) Slice(req queryRequest) (sliceResponse, error) {
	comp, scatter, err := rt.routeQuery(req)
	if err != nil {
		return sliceResponse{}, err
	}
	if scatter {
		// A wildcard-dimension-0 slice enumerates closed cells that do not fix
		// the routing dimension — cells whose closure depends on tuples from
		// every shard, so the per-shard closed-cell sets do not union into the
		// global one. /v1/aggregate answers those questions mergeably.
		return sliceResponse{}, fmt.Errorf(
			"slice must bind the routing dimension %s (its first component cannot be \"*\" through a router); use /v1/aggregate for cross-shard rollups", rt.names[0])
	}
	return routedCall(rt, "slice", req.trace, rt.ownerIndex(comp), func(sh Shard) (sliceResponse, error) {
		return sh.Slice(req)
	})
}

func (rt *Router) Aggregate(req aggregateRequest) (aggregateResponse, error) {
	if req.TopK < 0 {
		return aggregateResponse{}, fmt.Errorf("bad top_k %d", req.TopK)
	}
	by, err := ccubing.ParseOrderBy(req.OrderBy)
	if err != nil {
		return aggregateResponse{}, err
	}
	if _, err := ccubing.ParseAuxAgg(req.AuxAgg); err != nil {
		return aggregateResponse{}, err
	}
	// An exact-value predicate on dimension 0 pins the whole selection to one
	// shard; anything else (wildcard, set, range) can span them.
	if len(req.Where) > 0 {
		if c0 := req.Where[0]; c0 != "*" && c0 != "" && !strings.Contains(c0, "|") && !strings.Contains(c0, "..") {
			comp := c0
			if !rt.labeled {
				v, err := strconv.ParseInt(c0, 10, 32)
				if err != nil || v < 0 {
					return aggregateResponse{}, fmt.Errorf("bad value %q for dimension %s", c0, rt.names[0])
				}
				comp = strconv.FormatInt(v, 10)
			}
			return routedCall(rt, "aggregate", req.trace, rt.ownerIndex(comp), func(sh Shard) (aggregateResponse, error) {
				return sh.Aggregate(req)
			})
		}
	}
	// Scatter with top-k stripped: a shard's local top k can miss rows whose
	// global rank only emerges after cross-shard summation. Rank and truncate
	// here, after the merge.
	fwd := req
	fwd.TopK = 0
	resps, err := scatterCall(rt, "aggregate", req.trace, func(sh Shard) (aggregateResponse, error) {
		return sh.Aggregate(fwd)
	})
	if err != nil {
		return aggregateResponse{}, err
	}
	mstart := time.Now()
	defer rt.observeMerge(req.trace, mstart)
	// Merge rows keyed by their label tuple. Shards partition the tuples, so
	// counts sum; the measure combines per the requested aggregator (a
	// shard-level sum of sums is the global sum, min of mins the global min).
	// Avg rows combine through their AuxRaw stored sums and are presented —
	// divided by the merged count — once, after every shard is folded in.
	auxAgg, _ := ccubing.ParseAuxAgg(req.AuxAgg)
	avgAgg := auxAgg == ccubing.MeasureAvg || (auxAgg == ccubing.MeasureNone && rt.avgKind())
	merged := make(map[string]*aggregateRow)
	var order []string
	exact := true
	for _, r := range resps {
		exact = exact && r.Exact
		for _, row := range r.Rows {
			if avgAgg && row.Aux != nil && row.AuxRaw == nil {
				return aggregateResponse{}, errNoAuxRaw()
			}
			key := strings.Join(row.Cell, "\x00")
			m, ok := merged[key]
			if !ok {
				cp := row
				cp.Cell = append([]string(nil), row.Cell...)
				if row.Aux != nil {
					aux := *row.Aux
					cp.Aux = &aux
				}
				if row.AuxRaw != nil {
					raw := *row.AuxRaw
					cp.AuxRaw = &raw
				}
				merged[key] = &cp
				order = append(order, key)
				continue
			}
			m.Count += row.Count
			switch {
			case m.AuxRaw != nil && row.AuxRaw != nil:
				*m.AuxRaw += *row.AuxRaw // avg: stored sums add
			case m.Aux != nil && row.Aux != nil:
				switch auxAgg {
				case ccubing.MeasureMin:
					if *row.Aux < *m.Aux {
						*m.Aux = *row.Aux
					}
				case ccubing.MeasureMax:
					if *row.Aux > *m.Aux {
						*m.Aux = *row.Aux
					}
				default: // MeasureSum (and the MeasureNone default)
					*m.Aux += *row.Aux
				}
			}
		}
	}
	resp := aggregateResponse{Rows: make([]aggregateRow, 0, len(merged)), Exact: exact}
	for _, key := range order {
		m := merged[key]
		if m.AuxRaw != nil {
			// The same stored/count division a single worker performs, so
			// merged rows are byte-identical to an unsharded store's.
			mean := *m.AuxRaw / float64(m.Count)
			m.Aux = &mean
		}
		resp.Rows = append(resp.Rows, *m)
	}
	sortAggRows(resp.Rows, by == ccubing.ByAux)
	if req.TopK > 0 && len(resp.Rows) > req.TopK {
		resp.Rows = resp.Rows[:req.TopK]
	}
	return resp, nil
}
