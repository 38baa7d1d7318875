// Package ccubing computes closed and iceberg data cubes, implementing
// "C-Cubing: Efficient Computation of Closed Cubes by Aggregation-Based
// Checking" (Xin, Shao, Han, Liu; ICDE 2006).
//
// A data cube materializes every group-by of a relation. An iceberg cube
// keeps the cells whose count reaches a threshold; a closed cube losslessly
// compresses a cube by keeping only closed cells — cells not covered by a
// more specific cell with the same measure. This package provides:
//
//   - C-Cubing(MM), C-Cubing(Star) and C-Cubing(StarArray): the paper's
//     three closed-cubing algorithms, built on aggregation-based closedness
//     checking (a closedness measure aggregated like count, rather than
//     output-index checks or raw-data rescans);
//   - their iceberg bases MM-Cubing, Star-Cubing and StarArray, plus BUC and
//     the QC-DFS closed-cubing baseline, for comparison;
//   - dataset helpers (CSV and in-memory construction, synthetic and
//     weather-like generators), dimension-ordering strategies, closed-rule
//     mining, an out-of-core variant of the partition decomposition, and an
//     algorithm advisor.
//
// Quick start:
//
//	ds, _ := ccubing.ReadCSV(file)
//	cells, stats, _ := ccubing.ComputeCollect(ds, ccubing.Options{MinSup: 10, Closed: true})
package ccubing

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ccubing/internal/algs"
	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/order"
	"ccubing/internal/parallel"
	"ccubing/internal/route"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Star marks a wildcard (aggregated-over) dimension in a cell's Values.
const Star int32 = -1

// MaxDims is the largest supported dimensionality.
const MaxDims = core.MaxDims

// Algorithm selects a cubing engine. The values index internal/algs.Table and
// are what cube snapshots store.
type Algorithm int

const (
	// AlgAuto lets the library pick an engine via Advise.
	AlgAuto Algorithm = iota
	// AlgMM is MM-Cubing / C-Cubing(MM): lattice-space factorization with
	// MultiWay array aggregation in dense subspaces. Strong when iceberg
	// pruning dominates (high min_sup).
	AlgMM
	// AlgStar is Star-Cubing / C-Cubing(Star): star-tree computation with
	// simultaneous child-tree aggregation. Strong at low min_sup and low
	// cardinality.
	AlgStar
	// AlgStarArray is StarArray / C-Cubing(StarArray): the hybrid tree +
	// tuple-ID-pool structure with multiway traversal. Strong at low
	// min_sup and high cardinality.
	AlgStarArray
	// AlgBUC is BUC, iceberg only.
	AlgBUC
	// AlgQCDFS is the Quotient Cube DFS baseline, closed mode only.
	AlgQCDFS
	// AlgQCTree is QC-DFS plus QC-tree materialization — the full work the
	// original Quotient Cube system performs. Closed mode only.
	AlgQCTree
	// AlgOBBUC is output-based closedness checking (closed-pattern-mining
	// style, paper Sec. 2.2.2): BUC enumeration with an in-memory index of
	// previous outputs. Closed mode only.
	AlgOBBUC
)

// String names the algorithm as in the paper's figures.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algs.Table) {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algs.Table[a].Name()
}

// ParseAlgorithm resolves a command-line name to an algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	i, ok := algs.Parse(s)
	if !ok {
		return AlgAuto, fmt.Errorf("ccubing: unknown algorithm %q", s)
	}
	return Algorithm(i), nil
}

// OrderStrategy re-exports the dimension-ordering strategies of paper
// Sec. 5.5 (meaningful for the tree engines; MM-Cubing is order-free).
type OrderStrategy = order.Strategy

const (
	// OrderOriginal keeps the dataset's dimension order.
	OrderOriginal = order.Original
	// OrderByCardinality sorts dimensions by cardinality descending.
	OrderByCardinality = order.ByCardinality
	// OrderByEntropy sorts dimensions by the paper's entropy measure
	// descending (the recommended strategy).
	OrderByEntropy = order.ByEntropy
)

// MeasureKind re-exports the complex-measure kinds (paper Sec. 6.1).
type MeasureKind = core.MeasureKind

const (
	MeasureNone = core.MeasureNone
	MeasureSum  = core.MeasureSum
	MeasureMin  = core.MeasureMin
	MeasureMax  = core.MeasureMax
	MeasureAvg  = core.MeasureAvg
)

// Options configures a cube computation.
type Options struct {
	// MinSup is the iceberg threshold on count; 1 computes the full
	// (closed) cube. Defaults to 1 when zero.
	MinSup int64
	// Closed computes the closed (iceberg) cube; false computes the plain
	// iceberg cube.
	Closed bool
	// Algorithm picks the engine; AlgAuto consults Advise.
	Algorithm Algorithm
	// Order applies a dimension-ordering strategy before tree-based engines
	// run. Emitted cells are always in the dataset's original dimension
	// order.
	Order OrderStrategy
	// Measure attaches a complex measure, aggregated over Dataset.Aux during
	// the cubing pass itself by every engine (paper Sec. 6.1). Compute
	// presents MeasureAvg cells as the mean; Materialize stores the algebraic
	// (sum, count) pair.
	Measure MeasureKind
	// DenseBudget overrides the MM-Cubing dense array budget, in cells.
	DenseBudget int
	// DisableLemma5, DisableLemma6 and DisableShortcut switch off individual
	// closed-pruning devices for ablation studies; outputs are unaffected.
	DisableLemma5   bool
	DisableLemma6   bool
	DisableShortcut bool
	// Workers sets how many goroutines cube concurrently. 0 and 1 compute
	// sequentially; larger values shard the relation on one dimension and
	// cube the shards across that many workers (the paper's Sec. 6.3
	// partitioning); negative values use runtime.NumCPU(). With Workers > 1
	// the visit callback still runs serialized, but on worker goroutines and
	// in nondeterministic order. ComputePartitioned always runs the
	// decomposition, on one goroutine for 0 and 1, and holds at most Workers
	// spilled buckets in memory.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MinSup <= 0 {
		o.MinSup = 1
	}
	return o
}

// Cell is one output cell: Values has one entry per dimension (Star for
// aggregated dimensions), Count the count measure, and Aux the complex
// measure when one was requested.
type Cell struct {
	Values []int32
	Count  int64
	Aux    float64
}

// Stats summarizes a computation.
type Stats struct {
	// Algorithm is the engine that actually ran (resolved from AlgAuto).
	Algorithm Algorithm
	// Cells is the number of emitted cells.
	Cells int64
	// Bytes is the serialized cube size (4 bytes per dimension plus an
	// 8-byte count per cell, plus an 8-byte measure value when a complex
	// measure was computed), the accounting used by the paper's cube-size
	// experiments.
	Bytes int64
	// Elapsed is the wall-clock computation time.
	Elapsed time.Duration
}

// MB returns the cube size in binary megabytes.
func (s Stats) MB() float64 { return float64(s.Bytes) / (1 << 20) }

// Compute runs the configured algorithm over the dataset and calls visit for
// every output cell. The Cell passed to visit reuses its Values buffer
// between calls; copy it to retain. With Options.Workers > 1 the computation
// is sharded across goroutines; visit calls stay serialized but arrive on
// worker goroutines in nondeterministic order.
func Compute(ds *Dataset, opt Options, visit func(Cell)) (Stats, error) {
	opt = opt.withDefaults()
	plan, err := planCompute(ds, opt)
	if err != nil {
		return Stats{Algorithm: plan.alg}, err
	}
	st := Stats{Algorithm: plan.alg}
	out := newVisitSink(visit, plan.perm, plan.t.NumDims(), opt, &st)
	start := time.Now()
	err = plan.run(out)
	st.Elapsed = time.Since(start)
	return st, err
}

// computePlan is one resolved cube execution: the engine and its config, the
// (possibly reordered) relation, the permutation mapping engine dimension
// positions back to dataset positions, and the worker count.
type computePlan struct {
	alg     Algorithm
	eng     *engine.Engine
	ecfg    engine.Config
	t       *table.Table
	perm    []int
	workers int
}

// planCompute resolves options to a runnable plan: engine selection and
// validation, dimension ordering, worker count. Shared by Compute and the
// direct-to-builder path of Materialize.
func planCompute(ds *Dataset, opt Options) (computePlan, error) {
	if ds == nil || ds.t == nil {
		return computePlan{}, fmt.Errorf("ccubing: nil dataset")
	}
	alg := opt.Algorithm
	if alg == AlgAuto {
		alg = Advise(ds, opt.MinSup, opt.Closed)
	}
	plan := computePlan{alg: alg, workers: resolveWorkers(opt.Workers)}
	eng, ecfg, err := resolveEngine(ds, opt, alg)
	if err != nil {
		return plan, err
	}
	plan.eng, plan.ecfg = eng, ecfg
	plan.t = ds.t
	plan.perm = order.Permutation(plan.t, OrderOriginal)
	if opt.Order != OrderOriginal && eng.Caps.OrderSensitive {
		plan.t, plan.perm, err = order.Apply(ds.t, opt.Order)
		if err != nil {
			return plan, err
		}
	}
	return plan, nil
}

// run executes the plan into out, sharded across workers when more than one.
func (p computePlan) run(out sink.Sink) error {
	if p.workers > 1 {
		return parallel.Run(p.t, p.eng, p.ecfg, parallel.Config{Workers: p.workers, Dim: -1}, out)
	}
	return p.eng.Run(p.t, p.ecfg, out)
}

// identity reports whether the plan's permutation is the identity, i.e. cells
// arrive in dataset dimension order and need no remapping.
func (p computePlan) identity() bool {
	for i, d := range p.perm {
		if i != d {
			return false
		}
	}
	return true
}

// resolveEngine finds the algorithm's engine in the table and checks the
// requested options against its declared capabilities.
func resolveEngine(ds *Dataset, opt Options, alg Algorithm) (*engine.Engine, engine.Config, error) {
	if alg <= AlgAuto || int(alg) >= len(algs.Table) {
		return nil, engine.Config{}, fmt.Errorf("ccubing: unknown algorithm %v", alg)
	}
	eng := algs.Table[alg].Engine
	ecfg := engine.Config{
		MinSup:          opt.MinSup,
		Closed:          opt.Closed,
		Measure:         opt.Measure,
		DenseBudget:     opt.DenseBudget,
		DisableLemma5:   opt.DisableLemma5,
		DisableLemma6:   opt.DisableLemma6,
		DisableShortcut: opt.DisableShortcut,
	}
	if err := eng.Check(ecfg, ds.t.Aux != nil); err != nil {
		return nil, engine.Config{}, fmt.Errorf("ccubing: %w", err)
	}
	return eng, ecfg, nil
}

// resolveWorkers maps Options.Workers to a goroutine count: sequential for 0
// and 1, NumCPU for negative values.
func resolveWorkers(w int) int {
	if w < 0 {
		return runtime.NumCPU()
	}
	if w == 0 {
		return 1
	}
	return w
}

// visitSink adapts a visit callback to the engine sink interface, remapping
// dimension positions when the table was reordered. Engines deliver stored
// aggregates (avg as the running sum); the sink presents them — avg divides
// by count — so visit always sees the user-facing measure value.
type visitSink struct {
	visit   func(Cell)
	perm    []int
	scratch []core.Value
	stats   *Stats
	cell    Cell
	kind    MeasureKind
	// cellBytes is the serialized size of one cell: 4 bytes per dimension,
	// an 8-byte count, and another 8-byte value when a complex measure was
	// computed.
	cellBytes int64
}

func newVisitSink(visit func(Cell), perm []int, nd int, opt Options, st *Stats) *visitSink {
	cellBytes := int64(4*nd) + 8
	if opt.Measure != MeasureNone {
		cellBytes += 8
	}
	return &visitSink{
		visit:     visit,
		perm:      perm,
		scratch:   make([]core.Value, nd),
		stats:     st,
		kind:      opt.Measure,
		cellBytes: cellBytes,
	}
}

func (v *visitSink) Emit(vals []core.Value, count int64, aux float64) {
	v.stats.Cells++
	v.stats.Bytes += v.cellBytes
	for i, val := range vals {
		v.scratch[v.perm[i]] = val
	}
	if v.visit == nil {
		return
	}
	v.cell.Values = v.scratch
	v.cell.Count = count
	v.cell.Aux = core.Present(v.kind, aux, count)
	v.visit(v.cell)
}

// ComputeCollect is Compute retaining every cell.
func ComputeCollect(ds *Dataset, opt Options) ([]Cell, Stats, error) {
	var cells []Cell
	st, err := Compute(ds, opt, func(c Cell) {
		vals := make([]int32, len(c.Values))
		copy(vals, c.Values)
		cells = append(cells, Cell{Values: vals, Count: c.Count, Aux: c.Aux})
	})
	return cells, st, err
}

// Dataset is a dictionary-encoded relation ready for cubing.
type Dataset struct {
	t     *table.Table
	dicts []*table.Dict
}

// NumDims returns the number of dimensions.
func (ds *Dataset) NumDims() int { return ds.t.NumDims() }

// NumTuples returns the number of tuples.
func (ds *Dataset) NumTuples() int { return ds.t.NumTuples() }

// Names returns the dimension names.
func (ds *Dataset) Names() []string { return ds.t.Names }

// Cardinalities returns the per-dimension dictionary sizes.
func (ds *Dataset) Cardinalities() []int { return ds.t.Cards }

// SetMeasure attaches a per-tuple numeric measure column for complex
// measures (paper Sec. 6.1).
func (ds *Dataset) SetMeasure(vals []float64) error {
	if len(vals) != ds.t.NumTuples() {
		return fmt.Errorf("ccubing: measure column has %d values, want %d", len(vals), ds.t.NumTuples())
	}
	ds.t.Aux = vals
	return nil
}

// FormatCell renders a cell using the dataset's dictionaries (or raw codes
// when the dataset was built from coded values).
func (ds *Dataset) FormatCell(c Cell) string {
	var b strings.Builder
	b.WriteByte('(')
	for d, v := range c.Values {
		if d > 0 {
			b.WriteString(", ")
		}
		switch {
		case v == Star:
			b.WriteByte('*')
		case ds.dicts != nil:
			b.WriteString(ds.dicts[d].Name(v))
		default:
			b.WriteString(ds.t.Names[d])
			b.WriteByte('=')
			b.WriteString(strconv.Itoa(int(v)))
		}
	}
	b.WriteString(" : ")
	b.WriteString(strconv.FormatInt(c.Count, 10))
	b.WriteByte(')')
	return b.String()
}

// ReadCSV loads a dataset from CSV with a header row of dimension names.
func ReadCSV(r io.Reader) (*Dataset, error) {
	t, dicts, err := table.ReadCSV(r, true)
	if err != nil {
		return nil, err
	}
	if err := validateDims(t); err != nil {
		return nil, err
	}
	return &Dataset{t: t, dicts: dicts}, nil
}

// OpenDataset builds the dataset a command line names: exactly one of a CSV
// file (header row = dimension names), a synthetic spec in ParseSyntheticSpec
// notation, and a weather-like spec "tuples,dims". It is what the -csv,
// -synth and -weather flags of ccube, ccserve and ccgen mean.
func OpenDataset(csvPath, synth, weather string) (*Dataset, error) {
	switch {
	case csvPath != "" && synth == "" && weather == "":
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ReadCSV(bufio.NewReader(f))
	case synth != "" && csvPath == "" && weather == "":
		cfg, err := ParseSyntheticSpec(synth)
		if err != nil {
			return nil, err
		}
		return Synthetic(cfg)
	case weather != "" && csvPath == "" && synth == "":
		tuples, dims, _ := strings.Cut(weather, ",")
		n, err1 := strconv.Atoi(tuples)
		nd, err2 := strconv.Atoi(dims)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("ccubing: weather spec %q: want tuples,dims", weather)
		}
		return Weather(1, n, nd)
	}
	return nil, fmt.Errorf("ccubing: exactly one dataset source is required: a CSV file, a synthetic spec or a weather spec")
}

// NewDataset builds a dataset from string-valued rows, dictionary-encoding
// every field. names supplies one label per dimension.
func NewDataset(names []string, rows [][]string) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("ccubing: no rows")
	}
	nd := len(names)
	dicts := make([]*table.Dict, nd)
	for d := range dicts {
		dicts[d] = table.NewDict()
	}
	t := table.New(nd, len(rows))
	copy(t.Names, names)
	for i, row := range rows {
		if len(row) != nd {
			return nil, fmt.Errorf("ccubing: row %d has %d fields, want %d", i, len(row), nd)
		}
		for d, s := range row {
			t.Cols[d][i] = dicts[d].Code(s)
		}
	}
	for d := range dicts {
		t.Cards[d] = dicts[d].Len()
	}
	if err := validateDims(t); err != nil {
		return nil, err
	}
	return &Dataset{t: t, dicts: dicts}, nil
}

// NewDatasetFromValues builds a dataset from already-encoded rows (values in
// [0, card) per dimension; cardinalities inferred).
func NewDatasetFromValues(names []string, rows [][]int32) (*Dataset, error) {
	vrows := make([][]core.Value, len(rows))
	for i, r := range rows {
		vrows[i] = r
	}
	t, err := table.FromRows(vrows)
	if err != nil {
		return nil, err
	}
	if names != nil {
		if len(names) != t.NumDims() {
			return nil, fmt.Errorf("ccubing: %d names for %d dimensions", len(names), t.NumDims())
		}
		copy(t.Names, names)
	}
	if err := validateDims(t); err != nil {
		return nil, err
	}
	return &Dataset{t: t}, nil
}

// Shard returns the subset of the dataset owned by shard index out of count,
// routing each tuple by its dim component: the label on labeled datasets,
// the decimal value otherwise, hashed with the same FNV-1a mapping the
// serving router uses (internal/route). Sharding the relation this way makes
// the paper's Sec. 6.3 partition argument hold across processes — every
// closed cell fixing dim aggregates tuples of exactly one shard — so a
// scatter-gather router over per-shard cubes answers dim-bound queries from
// one worker. The measure column, when set, is carried along.
//
// A shard owning no tuples is an error: a cube cannot materialize over an
// empty relation, so such a topology needs fewer shards (or a different
// routing dimension).
func (ds *Dataset) Shard(dim, index, count int) (*Dataset, error) {
	if dim < 0 || dim >= ds.NumDims() {
		return nil, fmt.Errorf("ccubing: shard: dimension %d out of range [0,%d)", dim, ds.NumDims())
	}
	if count < 1 || index < 0 || index >= count {
		return nil, fmt.Errorf("ccubing: shard: index %d of %d out of range", index, count)
	}
	var keep []int
	var comp string
	for tid := 0; tid < ds.t.NumTuples(); tid++ {
		v := ds.t.Cols[dim][tid]
		if ds.dicts != nil {
			comp = ds.dicts[dim].Name(v)
		} else {
			comp = strconv.Itoa(int(v))
		}
		if route.Owner(comp, count) == index {
			keep = append(keep, tid)
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("ccubing: shard %d/%d owns no tuples on dimension %q", index, count, ds.t.Names[dim])
	}
	var out *Dataset
	var err error
	if ds.dicts != nil {
		rows := make([][]string, len(keep))
		for i, tid := range keep {
			row := make([]string, ds.NumDims())
			for d := 0; d < ds.NumDims(); d++ {
				row[d] = ds.dicts[d].Name(ds.t.Cols[d][tid])
			}
			rows[i] = row
		}
		out, err = NewDataset(ds.t.Names, rows)
	} else {
		rows := make([][]int32, len(keep))
		for i, tid := range keep {
			rows[i] = append([]int32(nil), ds.t.Row(core.TID(tid), nil)...)
		}
		out, err = NewDatasetFromValues(ds.t.Names, rows)
	}
	if err != nil {
		return nil, err
	}
	if ds.t.Aux != nil {
		aux := make([]float64, len(keep))
		for i, tid := range keep {
			aux[i] = ds.t.Aux[tid]
		}
		if err := out.SetMeasure(aux); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func validateDims(t *table.Table) error {
	if t.NumDims() > core.MaxDims {
		return fmt.Errorf("ccubing: %d dimensions exceed the supported %d", t.NumDims(), core.MaxDims)
	}
	return nil
}

// SyntheticConfig describes a synthetic dataset in the paper's vocabulary.
type SyntheticConfig struct {
	T          int     // tuples
	D          int     // dimensions
	C          int     // cardinality per dimension
	Cards      []int   // per-dimension cardinalities (overrides D, C)
	Skew       float64 // Zipf exponent, 0 = uniform
	Dependence float64 // target dependence R (paper Sec. 5.3); 0 = none
	Seed       int64
}

// ParseSyntheticSpec parses the command-line synthetic dataset notation
// shared by ccube, ccgen and ccserve: comma-separated key=value pairs over
// T, D, C, S (skew), R (dependence) and seed, e.g.
// "T=100000,D=8,C=100,S=1,R=0,seed=1". Omitted keys keep the defaults
// T=10000, D=6, C=10, seed=1.
func ParseSyntheticSpec(s string) (SyntheticConfig, error) {
	cfg := SyntheticConfig{T: 10000, D: 6, C: 10, Seed: 1}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return cfg, fmt.Errorf("ccubing: bad synth component %q", kv)
		}
		k, v := parts[0], parts[1]
		var err error
		switch k {
		case "T":
			cfg.T, err = strconv.Atoi(v)
		case "D":
			cfg.D, err = strconv.Atoi(v)
		case "C":
			cfg.C, err = strconv.Atoi(v)
		case "S":
			cfg.Skew, err = strconv.ParseFloat(v, 64)
		case "R":
			cfg.Dependence, err = strconv.ParseFloat(v, 64)
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			err = fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("ccubing: bad synth component %q: %v", kv, err)
		}
	}
	return cfg, nil
}

// Synthetic generates a dataset (deterministic per config).
func Synthetic(cfg SyntheticConfig) (*Dataset, error) {
	gcfg := gen.Config{T: cfg.T, D: cfg.D, C: cfg.C, Cards: cfg.Cards, S: cfg.Skew, Seed: cfg.Seed}
	if cfg.Dependence > 0 {
		cards := cfg.Cards
		if cards == nil {
			cards = make([]int, cfg.D)
			for i := range cards {
				cards[i] = cfg.C
			}
		}
		gcfg.Rules = gen.RulesForDependence(cfg.Dependence, cards, cfg.Seed+1)
	}
	t, err := gen.Synthetic(gcfg)
	if err != nil {
		return nil, err
	}
	return &Dataset{t: t}, nil
}

// Weather synthesizes the weather-like dataset standing in for the paper's
// SEP83L relation: n tuples over the first nd of its 8 dimensions (pass
// nd <= 0 for all 8, n <= 0 for the full 1,002,752 tuples). internal/gen
// (WeatherDims, Weather) documents the substitution.
func Weather(seed int64, n, nd int) (*Dataset, error) {
	t, err := gen.Weather(seed, n, nd)
	if err != nil {
		return nil, err
	}
	return &Dataset{t: t}, nil
}

// Table exposes the underlying relation to sibling internal packages (the
// experiment harness); external users should not need it.
func (ds *Dataset) Table() *table.Table { return ds.t }
