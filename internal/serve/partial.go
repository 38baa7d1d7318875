package serve

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
	"time"

	"ccubing"
	"ccubing/internal/core"
	"ccubing/internal/psort"
)

// auxCombiner is how a group's raw measure values fold across partials: the
// distributive part of the requested aggregation (avg travels as a sum).
type auxCombiner uint8

const (
	combineSum auxCombiner = iota
	combineMin
	combineMax
)

// aggPartial is an aggregate answer in the form that crosses a shard
// boundary: the algebraic state of every group (count, raw measure) keyed by
// small integers, never presented values or per-row labels. Local builds it
// from the cube's coded rows, Dial decodes it from a worker's frame (see
// frame.go), Router merges several into one, and finish turns the one that
// reaches the public API into JSON rows.
//
// A row is one group: ids holds one component id per group-by dimension, and
// label resolves an id. Ids mean something only inside one partial —
// dictionary codes on a Local (resolved through dict), indices into tables
// on a decoded frame or a merge — so partials combine through their labels,
// each looked up once per distinct id, and compare through ids.
type aggPartial struct {
	width  int        // dimensions of the cube: the width of a rendered cell
	dims   []int      // group-by dimensions, ascending
	ids    []uint32   // row-major: row r's ids are ids[r*len(dims):(r+1)*len(dims)]
	tables [][]string // tables[j][id]: the label of id on dims[j]; nil on a Local's partial
	dict   *labelCache
	counts []int64
	aux    []float64 // raw mergeable measure per row; nil on measureless cubes
	agg    auxCombiner
	avg    bool // aux holds sums presented as aux/count once the merge is final
	exact  bool

	wireBytes int // size of the frame this partial was decoded from; 0 in-process
}

func (p *aggPartial) rows() int { return len(p.counts) }

// key is row r's id tuple.
func (p *aggPartial) key(r int32) []uint32 {
	nd := len(p.dims)
	return p.ids[int(r)*nd : (int(r)+1)*nd]
}

// idBound is one past the largest id the rows use on group-by dimension
// dims[j]: the size of a table indexed by that column's ids.
func (p *aggPartial) idBound(j int) uint32 {
	bound := uint32(0)
	for at := j; at < len(p.ids); at += len(p.dims) {
		bound = max(bound, p.ids[at]+1)
	}
	return bound
}

// label resolves an id on group-by dimension dims[j].
func (p *aggPartial) label(j int, id uint32) string {
	if p.tables != nil {
		return p.tables[j][id]
	}
	return p.dict.label(p.dims[j], id)
}

// labelCache renders a cube's labels once: dictionaries only ever grow, so a
// (dimension, code) pair names one label for as long as the cube serves, and
// Cube.Labels — a D-wide slice per call — is asked for each pair one time.
// Codes past labelCacheCodes are looked up every time instead of growing the
// tables without bound.
type labelCache struct {
	cube *ccubing.Cube
	mu   sync.RWMutex
	dims [][]string // dims[d][code]; "" = not rendered yet
}

const labelCacheCodes = 1 << 16

func (lc *labelCache) label(d int, code uint32) string {
	lc.mu.RLock()
	var s string
	if tab := lc.dims[d]; int(code) < len(tab) {
		s = tab[code]
	}
	lc.mu.RUnlock()
	if s != "" {
		return s
	}
	vals := make([]int32, len(lc.dims))
	for i := range vals {
		vals[i] = ccubing.Star
	}
	vals[d] = int32(code)
	s = lc.cube.Labels(vals)[d]
	if code < labelCacheCodes {
		lc.mu.Lock()
		if int(code) >= len(lc.dims[d]) {
			lc.dims[d] = append(lc.dims[d], make([]string, int(code)+1-len(lc.dims[d]))...)
		}
		lc.dims[d][code] = s
		lc.mu.Unlock()
	}
	return s
}

// groupDims resolves group-by names the way Cube.Aggregate does (exact name
// first, decimal index second) into ascending, distinct dimensions. Names
// that resolve to nothing are skipped: the cube rejects them itself, with
// its own message.
func groupDims(names []string, groupBy []string) []int {
	dims := make([]int, 0, len(groupBy))
	for _, g := range groupBy {
		d := slices.Index(names, g)
		if d < 0 {
			v, err := strconv.Atoi(g)
			if err != nil || v < 0 || v >= len(names) {
				continue
			}
			d = v
		}
		if !slices.Contains(dims, d) {
			dims = append(dims, d)
		}
	}
	slices.Sort(dims)
	return dims
}

// presented is the measure value row r shows clients.
func (p *aggPartial) presented(r int32) float64 {
	if p.aux == nil {
		return 0
	}
	if p.avg {
		return core.Present(core.MeasureAvg, p.aux[r], p.counts[r])
	}
	return p.aux[r]
}

// rankedRow is a row that survived ranking, with its group-by labels.
type rankedRow struct {
	row    int32
	labels []string // one per group-by dimension
}

// top orders the rows best first — descending by the presented measure when
// byAux, then by count, ties by label tuple ascending (the canonical order of
// canon.go) — and keeps the k best (every row when k is 0). It ranks on
// numbers and renders labels only for the rows that can make the cut: the
// k-th rank and everything tied with it.
func (p *aggPartial) top(k int, byAux bool) []rankedRow {
	rank := func(a, b int32) int {
		if byAux {
			if x, y := p.presented(a), p.presented(b); x != y {
				if x > y {
					return -1
				}
				return 1
			}
		}
		return cmp.Compare(p.counts[b], p.counts[a])
	}
	order := make([]int32, p.rows())
	for r := range order {
		order[r] = int32(r)
	}
	if k > 0 && k < len(order) {
		n := k
		last := psort.TopK(order, k, rank)[k-1]
		for _, r := range order[k:] {
			if rank(r, last) == 0 {
				order[n] = r
				n++
			}
		}
		order = order[:n]
	}
	nd := len(p.dims)
	slab := make([]string, len(order)*nd)
	out := make([]rankedRow, len(order))
	for i, r := range order {
		labels := slab[i*nd : (i+1)*nd : (i+1)*nd]
		for j, id := range p.key(r) {
			labels[j] = p.label(j, id)
		}
		out[i] = rankedRow{row: r, labels: labels}
	}
	slices.SortFunc(out, func(a, b rankedRow) int {
		if c := rank(a.row, b.row); c != 0 {
			return c
		}
		return slices.Compare(a.labels, b.labels)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// cut returns the partial reduced to its k best rows (p itself when k keeps
// them all): what a shard hands back when the request carries a top_k.
func (p *aggPartial) cut(k int, byAux bool) *aggPartial {
	if k <= 0 || k >= p.rows() {
		return p
	}
	top := p.top(k, byAux)
	out := *p
	out.ids = make([]uint32, 0, len(top)*len(p.dims))
	out.counts = make([]int64, len(top))
	if p.aux != nil {
		out.aux = make([]float64, len(top))
	}
	for i, t := range top {
		out.ids = append(out.ids, p.key(t.row)...)
		out.counts[i] = p.counts[t.row]
		if p.aux != nil {
			out.aux[i] = p.aux[t.row]
		}
	}
	return &out
}

// finish renders the partial as the public aggregate answer: rank, cut to
// top_k, and only then labels — the one place a presented value or a cell
// array is built, on whichever node answers the client.
func (p *aggPartial) finish(k int, byAux bool) aggregateResponse {
	top := p.top(k, byAux)
	resp := aggregateResponse{Rows: make([]aggregateRow, len(top)), Exact: p.exact}
	cells := make([]string, len(top)*p.width)
	for i := range cells {
		cells[i] = "*"
	}
	var shown []float64
	if p.aux != nil {
		shown = make([]float64, len(top))
	}
	for i, t := range top {
		cell := cells[i*p.width : (i+1)*p.width : (i+1)*p.width]
		for j, d := range p.dims {
			cell[d] = t.labels[j]
		}
		row := aggregateRow{Cell: cell, Count: p.counts[t.row]}
		if p.aux != nil {
			shown[i] = p.presented(t.row)
			row.Aux = &shown[i]
			if p.avg {
				row.AuxRaw = &p.aux[t.row]
			}
		}
		resp.Rows[i] = row
	}
	return resp
}

// finishAggregate answers the public aggregate from a shard's partial: the
// shard validates the request and cuts where that is exact, this renders.
func finishAggregate(partial func(aggregateRequest) (*aggPartial, error), req aggregateRequest) (aggregateResponse, error) {
	p, err := partial(req)
	if err != nil {
		return aggregateResponse{}, err
	}
	start := time.Now()
	resp := p.finish(req.TopK, orderByAux(req))
	req.trace.Observe("render", time.Since(start))
	return resp, nil
}

// cutAggregate is finishAggregate for a shard answering another node: the
// partial stays a partial, reduced to the request's top_k.
func cutAggregate(partial func(aggregateRequest) (*aggPartial, error), req aggregateRequest) (*aggPartial, error) {
	p, err := partial(req)
	if err != nil {
		return nil, err
	}
	return p.cut(req.TopK, orderByAux(req)), nil
}

// orderByAux reads an order_by a shard has already validated.
func orderByAux(req aggregateRequest) bool {
	by, _ := ccubing.ParseOrderBy(req.OrderBy)
	return by == ccubing.ByAux
}
