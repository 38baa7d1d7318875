package serve

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"ccubing"
)

// avgKind reports an avg-measure topology. Presented means do not combine
// across shards, so scattered point reads merge through the answers' AuxRaw
// stored sums; errNoAuxRaw is the answer when one arrives without it.
func (rt *Router) avgKind() bool {
	return rt.kind == ccubing.MeasureAvg.String()
}

// errNoAuxRaw reports a malformed worker answer: an avg cell that cannot be
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
	return finishAggregate(rt.gather, req)
}

func (rt *Router) AggregatePartial(req aggregateRequest) (*aggPartial, error) {
	return cutAggregate(rt.gather, req)
}

// gather validates the request, then either routes it whole to the worker
// owning an exact dimension-0 predicate or scatters it and merges the
// workers' partials into one. The result holds every row that can still rank:
// all groups, or the workers' own top_k rows when they could cut.
//
// The scatter forwards top_k exactly when the group-by names dimension 0:
// every group then fixes its routing component, so it lives whole on one
// worker (the Sec. 6.3 partition invariant) and carries its global count and
// measure there; rank-then-labels is the same total order on every node; so
// each worker's k best contain every row of the global k best, and the merge
// sees at most k rows per worker. Any other group-by can split a group
// across workers — its rank exists only after the sums — so top_k stays here.
func (rt *Router) gather(req aggregateRequest) (*aggPartial, error) {
	if req.TopK < 0 {
		return nil, fmt.Errorf("bad top_k %d", req.TopK)
	}
	if _, err := ccubing.ParseOrderBy(req.OrderBy); err != nil {
		return nil, err
	}
	if _, err := ccubing.ParseAuxAgg(req.AuxAgg); err != nil {
		return nil, err
	}
	// An exact-value predicate on dimension 0 pins the whole selection to one
	// shard; anything else (wildcard, set, range) can span them.
	if len(req.Where) > 0 {
		if c0 := req.Where[0]; c0 != "*" && c0 != "" && !strings.Contains(c0, "|") && !strings.Contains(c0, "..") {
			comp := c0
			if !rt.labeled {
				v, err := strconv.ParseInt(c0, 10, 32)
				if err != nil || v < 0 {
					return nil, fmt.Errorf("bad value %q for dimension %s", c0, rt.names[0])
				}
				comp = strconv.FormatInt(v, 10)
			}
			p, err := routedCall(rt, "aggregate", req.trace, rt.ownerIndex(comp), func(sh Shard) (*aggPartial, error) {
				return sh.AggregatePartial(req)
			})
			if err == nil {
				err = rt.admit(p)
			}
			if err != nil {
				return nil, err
			}
			return p, nil
		}
	}
	fwd := req
	if req.TopK > 0 && slices.Contains(groupDims(rt.names, req.GroupBy), 0) {
		rt.met.pushdown.Inc()
	} else {
		fwd.TopK = 0
	}
	parts, err := scatterCall(rt, "aggregate", req.trace, func(sh Shard) (*aggPartial, error) {
		return sh.AggregatePartial(fwd)
	})
	if err != nil {
		return nil, err
	}
	mstart := time.Now()
	defer rt.observeMerge(req.trace, mstart)
	return rt.mergePartials(parts)
}

// admit counts a worker's partial and checks it against the topology: a
// partial of another shape is a malformed worker answer, not mergeable state.
func (rt *Router) admit(p *aggPartial) error {
	rt.met.partialRows.Add(int64(p.rows()))
	rt.met.partialBytes.Add(int64(p.wireBytes))
	if p.width != rt.dims || (p.aux != nil) != rt.measure {
		return statusErrorf(http.StatusBadGateway,
			"shard answered with a partial over %d dimensions (measure %v), topology has %d (measure %v)",
			p.width, p.aux != nil, rt.dims, rt.measure)
	}
	return nil
}

// mergePartials folds the workers' partials, in shard order, into one: shards
// partition the tuples, so counts add, and raw measures combine per the
// partial's own combiner (a sum of sums is the global sum, a min of mins the
// global min; avg travels as its sum). Workers that disagree on the group-by
// dimensions or the measure flags did not answer the same question: 502.
func (rt *Router) mergePartials(parts []*aggPartial) (*aggPartial, error) {
	first := parts[0]
	total, most := 0, 0
	for i, p := range parts {
		if err := rt.admit(p); err != nil {
			return nil, err
		}
		if !slices.Equal(p.dims, first.dims) || p.agg != first.agg || p.avg != first.avg {
			return nil, statusErrorf(http.StatusBadGateway,
				"shard %d answered a different aggregate than shard 0 (group-by dimensions %v vs %v, combiner %d/%v vs %d/%v)",
				i, p.dims, first.dims, p.agg, p.avg, first.agg, first.avg)
		}
		total += p.rows()
		most = max(most, p.rows())
	}
	m := newPartialMerger(first, total, most)
	for _, p := range parts {
		m.out.exact = m.out.exact && p.exact
		m.fold(p)
	}
	return &m.out, nil
}

// partialMerger accumulates partials into out. Labels are the only identity
// workers share (dictionary codes are shard-local), so each worker id is
// interned once into out's id space; rows then meet on their interned id
// tuples in an open-addressing table, and no per-row string is ever built.
type partialMerger struct {
	out   aggPartial          // out.tables[j] lists the labels interned on dims[j]
	index []map[string]uint32 // per group-by dimension: label → interned id
	remap [][]uint32          // per group-by dimension: the folding partial's id → interned id + 1, 0 = not yet
	keys  []uint32            // the folding partial's ids, translated into out's
	slots []int32             // hash table over out's rows: row+1, 0 = free
}

// newPartialMerger sizes a merger for rows incoming rows, at least most of
// them distinct groups.
func newPartialMerger(like *aggPartial, rows, most int) *partialMerger {
	nd := len(like.dims)
	m := &partialMerger{
		index: make([]map[string]uint32, nd),
		remap: make([][]uint32, nd),
	}
	for j := range m.index {
		m.index[j] = make(map[string]uint32)
	}
	size := 8
	for size < 2*rows {
		size *= 2
	}
	m.slots = make([]int32, size)
	tables := make([][]string, nd)
	for j := range tables {
		tables[j] = make([]string, 0, 16)
	}
	m.out = aggPartial{
		width:  like.width,
		dims:   like.dims,
		ids:    make([]uint32, 0, most*nd),
		tables: tables,
		counts: make([]int64, 0, most),
		agg:    like.agg,
		avg:    like.avg,
		exact:  true,
	}
	if like.aux != nil {
		m.out.aux = make([]float64, 0, most)
	}
	return m
}

// intern maps a label on group-by dimension j to its id in out.
func (m *partialMerger) intern(j int, label string) uint32 {
	id, ok := m.index[j][label]
	if !ok {
		id = uint32(len(m.out.tables[j]))
		m.index[j][label] = id
		m.out.tables[j] = append(m.out.tables[j], label)
	}
	return id
}

// fold adds every row of p to out. It first translates a copy of p's ids
// into out's id space through remap — a label is resolved and hashed once per
// distinct id, not once per row — and then lets the rows meet out's groups.
func (m *partialMerger) fold(p *aggPartial) {
	nd := len(p.dims)
	m.keys = append(m.keys[:0], p.ids...)
	for j := 0; j < nd; j++ {
		remap := append(m.remap[j][:0], make([]uint32, p.idBound(j))...)
		for at := j; at < len(m.keys); at += nd {
			id := m.keys[at]
			if remap[id] == 0 {
				remap[id] = m.intern(j, p.label(j, id)) + 1
			}
			m.keys[at] = remap[id] - 1
		}
		m.remap[j] = remap
	}
	m.meet(p)
}

// meet folds p's rows, keyed by m.keys, into the groups of out: a key seen
// before combines into its row, a new one becomes the next row.
func (m *partialMerger) meet(p *aggPartial) {
	out := &m.out
	nd := len(p.dims)
	mask := uint32(len(m.slots) - 1)
	for r, count := range p.counts {
		key := m.keys[r*nd : (r+1)*nd]
		h := uint32(2166136261)
		for _, id := range key {
			h = (h ^ id) * 16777619
		}
		slot := (h ^ h>>15) & mask
		g := m.slots[slot]
		for g != 0 && !slices.Equal(out.key(g-1), key) {
			slot = (slot + 1) & mask
			g = m.slots[slot]
		}
		if g == 0 {
			m.slots[slot] = int32(len(out.counts)) + 1
			out.ids = append(out.ids, key...)
			out.counts = append(out.counts, count)
			if out.aux != nil {
				out.aux = append(out.aux, p.aux[r])
			}
			continue
		}
		out.counts[g-1] += count
		if out.aux != nil {
			switch a := p.aux[r]; out.agg {
			case combineMin:
				if a < out.aux[g-1] {
					out.aux[g-1] = a
				}
			case combineMax:
				if a > out.aux[g-1] {
					out.aux[g-1] = a
				}
			default:
				out.aux[g-1] += a
			}
		}
	}
}
