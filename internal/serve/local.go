package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccubing"
	"ccubing/internal/obs"
)

// Local serves one in-process cube: the whole relation in single mode, or
// one leading-dimension shard of it on a worker. The cube itself swaps its
// store atomically on refresh; the Local-level pointer additionally swaps
// the whole cube on a warm snapshot reload. Methods load the pointer once
// per call, so every answer comes from one cube and one generation.
type Local struct {
	cube     atomic.Pointer[ccubing.Cube]
	snapshot string // default Reload source; set before serving starts
	shard    string // "index/count" on a shard worker; set before serving starts

	labels atomic.Pointer[labelCache] // rendered labels of the serving cube

	// reloadMu makes a Reload's load, validation against the serving cube and
	// swap one step: two concurrent reloads may not both validate against the
	// same cube and then publish in the wrong order.
	reloadMu sync.Mutex
	// The phases of every snapshot load this Local served from — the boot
	// load and each Reload: reading the file, the checksums and structural
	// checks, building the lattice index.
	loadRead, loadVerify, loadIndex *obs.Histogram

	// reg exposes the serving cube's state as gauges and counters, read at
	// scrape time through the atomic pointer — so a Reload swaps what the
	// metrics describe along with what the queries answer from.
	reg *obs.Registry
}

// NewLocal wraps a cube as a Shard. The caller keeps ownership of the cube's
// lifecycle except after Reload, which closes the replaced cube itself.
func NewLocal(cube *ccubing.Cube) *Local {
	l := &Local{reg: obs.NewRegistry()}
	l.cube.Store(cube)
	l.reg.GaugeFunc("ccubing_generation", "Generation of the serving cube.",
		func() float64 { return float64(l.cube.Load().Generation()) })
	l.reg.GaugeFunc("ccubing_backlog_rows", "Buffered delta rows awaiting the next refresh.",
		func() float64 { return float64(l.cube.Load().Backlog()) })
	l.reg.GaugeFunc("ccubing_cells", "Closed cells in the serving store.",
		func() float64 { return float64(l.cube.Load().NumCells()) })
	l.reg.GaugeFunc("ccubing_source_rows", "Source relation rows folded into the serving cube.",
		func() float64 { return float64(l.cube.Load().SourceRows()) })
	l.reg.CounterFunc("ccubing_cache_hits_total", "Point queries answered from the query-result cache.",
		func() int64 { hits, _ := l.cube.Load().QueryCacheMetrics(); return hits })
	l.reg.CounterFunc("ccubing_cache_misses_total", "Point queries that missed the query-result cache.",
		func() int64 { _, misses := l.cube.Load().QueryCacheMetrics(); return misses })
	l.reg.CounterFunc("ccubing_cache_evictions_total", "Query-result cache entries evicted to make room.",
		func() int64 { return l.cube.Load().QueryCacheEvictions() })
	l.reg.CounterFunc("ccubing_refreshes_total", "Published refresh generations since start.",
		func() int64 { return l.cube.Load().RefreshMetrics().Refreshes })
	l.reg.GaugeFunc("ccubing_snapshot_bytes", "Size of the snapshot the serving cube was loaded from (0: built from data).",
		func() float64 { return float64(l.cube.Load().SnapshotLoad().Bytes) })
	loadPhase := func(name string) *obs.Histogram {
		return l.reg.Histogram("ccubing_snapshot_load_seconds",
			"Duration of one phase of loading a snapshot, at boot and on every reload.", "phase", name)
	}
	l.loadRead, l.loadVerify, l.loadIndex = loadPhase("read"), loadPhase("verify"), loadPhase("index")
	l.observeLoad(cube)
	return l
}

// observeLoad records the load phases of a cube that came from a snapshot.
func (l *Local) observeLoad(cube *ccubing.Cube) {
	if load := cube.SnapshotLoad(); load.Bytes > 0 {
		l.loadRead.Observe(load.Read)
		l.loadVerify.Observe(load.Verify)
		l.loadIndex.Observe(load.Index)
	}
}

// MetricsRegistry exposes the cube-state registry to the Server's /metrics.
func (l *Local) MetricsRegistry() *obs.Registry { return l.reg }

// Health reports this node's role for GET /v1/health.
func (l *Local) Health() healthResponse {
	cube := l.cube.Load()
	role := "single"
	if l.shard != "" {
		role = "shard"
	}
	return healthResponse{
		Role:       role,
		Shard:      l.shard,
		Generation: cube.Generation(),
		Backlog:    cube.Backlog(),
	}
}

// SetSnapshot sets the default snapshot path for Reload (the -snapshot
// flag). Call before serving starts; not synchronized.
func (l *Local) SetSnapshot(path string) { l.snapshot = path }

// SetShard marks this Local as worker index of a count-wide topology, so
// Meta advertises its slot. Call before serving starts; not synchronized.
func (l *Local) SetShard(index, count int) { l.shard = fmt.Sprintf("%d/%d", index, count) }

// Cube returns the currently serving cube — for process shutdown, which
// closes it to sync the WAL and stop auto-refresh.
func (l *Local) Cube() *ccubing.Cube { return l.cube.Load() }

func (l *Local) Meta() (cubeResponse, error) {
	cube := l.cube.Load()
	return cubeResponse{
		Dims:        cube.NumDims(),
		Names:       cube.Names(),
		Cells:       cube.NumCells(),
		Cuboids:     cube.NumCuboids(),
		MinSup:      cube.MinSup(),
		Labeled:     cube.Labeled(),
		Measure:     cube.HasMeasure(),
		MeasureKind: cube.Measure().String(),
		SizeByte:    cube.Bytes(),
		Generation:  cube.Generation(),
		SourceRows:  cube.SourceRows(),
		Live:        cube.Refreshable(),
		Shard:       l.shard,
	}, nil
}

// resolveCell maps a queryRequest to coded values against the serving cube.
// miss reports an unknown label: a well-formed query whose cell is provably
// empty.
func resolveCell(cube *ccubing.Cube, req queryRequest) (vals []int32, miss bool, err error) {
	if (req.Cell == nil) == (req.Values == nil) {
		return nil, false, fmt.Errorf(`exactly one of "cell" and "values" is required`)
	}
	if req.Limit < 0 {
		return nil, false, fmt.Errorf("bad limit %d", req.Limit)
	}
	if req.Values != nil {
		if err := validateValues(cube, req.Values); err != nil {
			return nil, false, err
		}
		return req.Values, false, nil
	}
	if !cube.Labeled() {
		// Coded cube: parse the components as integers ("*" = wildcard).
		if len(req.Cell) != cube.NumDims() {
			return nil, false, fmt.Errorf("cell has %d components, want %d", len(req.Cell), cube.NumDims())
		}
		vals = make([]int32, len(req.Cell))
		for d, c := range req.Cell {
			if c == "*" {
				vals[d] = ccubing.Star
				continue
			}
			v, err := strconv.ParseInt(c, 10, 32)
			if err != nil || v < 0 {
				return nil, false, fmt.Errorf("bad value %q for dimension %s", c, cube.Names()[d])
			}
			vals[d] = int32(v)
		}
		return vals, false, nil
	}
	vals, err = cube.ParseCell(req.Cell)
	if err != nil {
		if errors.Is(err, ccubing.ErrUnknownLabel) {
			return nil, true, nil
		}
		return nil, false, err
	}
	return vals, false, nil
}

// validateValues checks a coded cell vector: correct arity, and every entry
// either a non-negative dictionary code or the wildcard sentinel. Arbitrary
// negative entries would silently pack garbage keys and read as misses.
func validateValues(cube *ccubing.Cube, vals []int32) error {
	if len(vals) != cube.NumDims() {
		return fmt.Errorf("cell has %d values, want %d", len(vals), cube.NumDims())
	}
	for d, v := range vals {
		if v < 0 && v != ccubing.Star {
			return fmt.Errorf("bad value %d for dimension %s (codes are non-negative; %d = wildcard)",
				v, cube.Names()[d], ccubing.Star)
		}
	}
	return nil
}

func (l *Local) Query(req queryRequest) (queryResponse, error) {
	cube := l.cube.Load()
	start := time.Now()
	vals, miss, err := resolveCell(cube, req)
	req.trace.Observe("resolve", time.Since(start))
	if err != nil {
		return queryResponse{}, err
	}
	if miss { // unknown label: the cell is necessarily empty
		return queryResponse{Found: false}, nil
	}
	start = time.Now()
	cell, ok := cube.LookupStored(vals)
	req.trace.Observe("probe", time.Since(start))
	if !ok {
		return queryResponse{Found: false}, nil
	}
	resp := queryResponse{Found: true, Count: cell.Count, Closure: cube.Labels(cell.Values)}
	if cube.HasMeasure() {
		aux := cube.PresentAux(cell.Aux, cell.Count)
		resp.Aux = &aux
		if cube.Measure() == ccubing.MeasureAvg {
			// Presented means cannot be recombined across shards, so avg
			// answers carry the raw stored sum alongside the mean.
			raw := cell.Aux
			resp.AuxRaw = &raw
		}
	}
	return resp, nil
}

const defaultSliceLimit = 1000

func (l *Local) Slice(req queryRequest) (sliceResponse, error) {
	cube := l.cube.Load()
	start := time.Now()
	vals, miss, err := resolveCell(cube, req)
	req.trace.Observe("resolve", time.Since(start))
	if err != nil {
		return sliceResponse{}, err
	}
	limit := defaultSliceLimit
	if req.Limit > 0 {
		limit = req.Limit
	}
	resp := sliceResponse{Cells: []sliceCell{}}
	if miss {
		return resp, nil
	}
	// Collect every matching cell, order canonically, then truncate: the
	// store's visit order ties break on shard-local packed keys, so cutting
	// off mid-walk would keep different cells on different topologies.
	start = time.Now()
	defer func() { req.trace.Observe("slice", time.Since(start)) }()
	cube.Slice(vals, func(c ccubing.Cell) bool {
		sc := sliceCell{Cell: cube.Labels(c.Values), Count: c.Count}
		if cube.HasMeasure() {
			aux := c.Aux
			sc.Aux = &aux
		}
		resp.Cells = append(resp.Cells, sc)
		return true
	})
	sortSliceCells(resp.Cells)
	if len(resp.Cells) > limit {
		resp.Cells = resp.Cells[:limit]
		resp.Truncated = true
	}
	return resp, nil
}

func (l *Local) Aggregate(req aggregateRequest) (aggregateResponse, error) {
	return finishAggregate(l.partial, req)
}

func (l *Local) AggregatePartial(req aggregateRequest) (*aggPartial, error) {
	return cutAggregate(l.partial, req)
}

// labelsOf returns the label cache of the serving cube, starting a fresh one
// when a reload has swapped the cube (and its dictionaries) out.
func (l *Local) labelsOf(cube *ccubing.Cube) *labelCache {
	lc := l.labels.Load()
	if lc == nil || lc.cube != cube {
		lc = &labelCache{cube: cube, dims: make([][]string, cube.NumDims())}
		l.labels.Store(lc)
	}
	return lc
}

// partial answers an aggregate with every group, uncut: the cube's coded rows
// as they are, a row's ids being its dictionary codes.
func (l *Local) partial(req aggregateRequest) (*aggPartial, error) {
	cube := l.cube.Load()
	if req.TopK < 0 {
		return nil, fmt.Errorf("bad top_k %d", req.TopK)
	}
	// TopK stays out of the store call: the cut needs the canonical label
	// tie-break (see canon.go), which the store cannot apply.
	opt := ccubing.AggregateOptions{GroupBy: req.GroupBy}
	var err error
	if opt.By, err = ccubing.ParseOrderBy(req.OrderBy); err != nil {
		return nil, err
	}
	if opt.AuxAgg, err = ccubing.ParseAuxAgg(req.AuxAgg); err != nil {
		return nil, err
	}
	p := &aggPartial{width: cube.NumDims(), dict: l.labelsOf(cube)}
	switch opt.AuxAgg {
	case ccubing.MeasureMin:
		p.agg = combineMin
	case ccubing.MeasureMax:
		p.agg = combineMax
	}
	// Avg aggregations fetch the raw group sums: the sum is what merges, and
	// the mean is presented (divided) once, by whoever renders the answer.
	p.avg = cube.Measure() == ccubing.MeasureAvg &&
		(opt.AuxAgg == ccubing.MeasureNone || opt.AuxAgg == ccubing.MeasureAvg)
	if p.avg {
		opt.AuxAgg = ccubing.MeasureSum
	}
	start := time.Now()
	var spec ccubing.QuerySpec
	if req.Where == nil {
		// Select everything: the zero Predicate is the wildcard.
		spec = make(ccubing.QuerySpec, cube.NumDims())
	} else if spec, err = cube.ParseSpec(req.Where); err != nil {
		return nil, err
	}
	req.trace.Observe("resolve", time.Since(start))
	start = time.Now()
	rows, exact, err := cube.Aggregate(spec, opt)
	req.trace.Observe("aggregate", time.Since(start))
	if err != nil {
		return nil, err
	}
	p.exact = exact
	p.dims = groupDims(cube.Names(), req.GroupBy)
	p.ids = make([]uint32, 0, len(p.dims)*len(rows))
	p.counts = make([]int64, len(rows))
	if cube.HasMeasure() {
		p.aux = make([]float64, len(rows))
	}
	for r, c := range rows {
		for _, d := range p.dims {
			p.ids = append(p.ids, uint32(c.Values[d]))
		}
		p.counts[r] = c.Count
		if p.aux != nil {
			p.aux[r] = c.Aux
		}
	}
	return p, nil
}

// errStatic rejects mutations against a snapshot-loaded cube.
func errStatic(verb string) error {
	return statusErrorf(http.StatusConflict, "cube is static (snapshot-loaded); serve from data to %s", verb)
}

func (l *Local) Mutate(req mutationRequest) (mutationResponse, error) {
	cube := l.cube.Load()
	if !cube.Refreshable() {
		return mutationResponse{}, errStatic("mutate")
	}
	if req.auxPerLine && !cube.HasMeasure() {
		req.Aux = nil
	}
	genBefore := cube.Generation()
	n, err := cube.Mutate(req.Mutation)
	if err != nil {
		return mutationResponse{}, mutateError(n, err)
	}
	if req.Refresh {
		if _, err := cube.Refresh(); err != nil {
			return mutationResponse{}, statusErrorf(http.StatusInternalServerError, "%v", err)
		}
	}
	gen := cube.Generation()
	return mutationResponse{Applied: n, Backlog: cube.Backlog(), Generation: gen, Refreshed: gen != genBefore}, nil
}

func (l *Local) Refresh() (refreshResponse, error) {
	cube := l.cube.Load()
	if !cube.Refreshable() {
		return refreshResponse{}, errStatic("refresh")
	}
	st, err := cube.Refresh()
	if err != nil {
		return refreshResponse{}, statusErrorf(http.StatusInternalServerError, "%v", err)
	}
	return refreshResponse{
		Generation:           st.Generation,
		Appended:             st.Appended,
		Deleted:              st.Deleted,
		PartitionsRecomputed: st.PartitionsRecomputed,
		PartitionsTotal:      st.PartitionsTotal,
		CellsRetained:        st.CellsRetained,
		CellsRebuilt:         st.CellsRebuilt,
		ElapsedMs:            float64(st.Elapsed.Microseconds()) / 1000,
	}, nil
}

func (l *Local) Stats() (statsResponse, error) {
	cube := l.cube.Load()
	m := cube.RefreshMetrics()
	hits, misses := cube.QueryCacheMetrics()
	return statsResponse{
		Generation:       m.Generation,
		SourceRows:       m.Rows,
		Backlog:          m.Backlog,
		Cells:            cube.NumCells(),
		Live:             cube.Refreshable(),
		Refreshes:        m.Refreshes,
		LastRefreshMs:    float64(m.Last.Elapsed.Microseconds()) / 1000,
		LastRefreshError: m.LastError,
		CacheHits:        hits,
		CacheMisses:      misses,
	}, nil
}

// Reload swaps the serving cube for one loaded from a snapshot — the warm
// path for picking up an offline rebuild without a restart. The snapshot
// must describe the same cube (dimension names) and must not regress the
// generation; in-flight queries finish on the old cube. Reloads are
// serialized, so the serving generation never goes backwards.
func (l *Local) Reload(req reloadRequest) (reloadResponse, error) {
	path := req.Path
	if path == "" {
		path = l.snapshot
	}
	if path == "" {
		return reloadResponse{}, fmt.Errorf("no snapshot path: pass {\"path\": ...} or start with -snapshot")
	}
	l.reloadMu.Lock()
	defer l.reloadMu.Unlock()
	loaded, err := ccubing.LoadCubeFile(path)
	if err != nil {
		return reloadResponse{}, err
	}
	cur := l.cube.Load()
	if got, want := strings.Join(loaded.Names(), ","), strings.Join(cur.Names(), ","); got != want {
		return reloadResponse{}, statusErrorf(http.StatusConflict,
			"snapshot describes a different cube (dimensions %q, serving %q)", got, want)
	}
	if loaded.Generation() < cur.Generation() {
		return reloadResponse{}, statusErrorf(http.StatusConflict,
			"snapshot generation %d regresses serving generation %d", loaded.Generation(), cur.Generation())
	}
	if backlog := cur.Backlog(); backlog > 0 && !req.Force {
		return reloadResponse{}, statusErrorf(http.StatusConflict,
			"serving cube has %d buffered append rows that a reload would discard; POST /v1/refresh first or pass {\"force\": true}", backlog)
	}
	old := l.cube.Swap(loaded)
	_ = old.Close() // stop any auto-refresh timer; queries in flight finish on it
	l.observeLoad(loaded)
	return reloadResponse{
		Path:       path,
		Generation: loaded.Generation(),
		Cells:      loaded.NumCells(),
		SourceRows: loaded.SourceRows(),
	}, nil
}
