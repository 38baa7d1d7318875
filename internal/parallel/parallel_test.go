package parallel

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"ccubing/internal/algs"
	"ccubing/internal/buc"
	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
	"ccubing/internal/startree"
	"ccubing/internal/table"
)

// testTables builds the two regimes the closed-pruning machinery cares
// about — a skewed relation and a dependent one (paper Sec. 5.3) — and one
// relation per shard kind of the assignment: Zipf-skewed over more values
// than the light ones hold tuples (heavy and bucketed shards coexist), more
// values than tuples (no heavy value), and one value holding every tuple (one
// heavy shard).
func testTables(t *testing.T) map[string]*table.Table {
	t.Helper()
	synth := func(cfg gen.Config) *table.Table {
		tbl, err := gen.Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	cards := []int{16, 9, 7, 5, 11}
	onevalue := synth(gen.Config{T: 600, Cards: cards, S: 1, Seed: 5})
	for tid := range onevalue.Cols[0] {
		onevalue.Cols[0][tid] = 3
	}
	return map[string]*table.Table{
		"skewed": synth(gen.Config{T: 1200, Cards: cards, S: 1.5, Seed: 7}),
		"dependent": synth(gen.Config{
			T: 1200, Cards: cards, S: 0.8, Seed: 11,
			Rules: gen.RulesForDependence(2, cards, 12),
		}),
		"zipf":     synth(gen.Config{T: 1500, Cards: []int{60, 6, 5, 7}, S: 1.3, Seed: 13}),
		"sparse":   synth(gen.Config{T: 500, Cards: []int{2000, 5, 4, 6}, S: 0.5, Seed: 17}),
		"onevalue": onevalue,
	}
}

// wantShards is what the assignment must produce on each test table: the
// tables exist to force each shard kind, so a drifting generator or rule
// fails here.
var wantShards = map[string]struct{ heavy, buckets bool }{
	"skewed":    {true, true},
	"dependent": {true, true},
	"zipf":      {true, true},
	"sparse":    {false, true},
	"onevalue":  {true, false},
}

// spilledTables are the relations the suites also run out of core, one per
// shard kind: their buckets hold heavy and light values, light ones only, and
// a single heavy value.
var spilledTables = map[string]bool{"zipf": true, "sparse": true, "onevalue": true}

// engines lists the algorithm table's engines, sorted by name. The count is
// asserted so that a row dropped from the table fails the every-engine suites
// instead of shrinking them.
func engines(t *testing.T) []*engine.Engine {
	t.Helper()
	var es []*engine.Engine
	for _, r := range algs.Table {
		if r.Engine != nil {
			es = append(es, r.Engine)
		}
	}
	if len(es) != 7 {
		t.Fatalf("the algorithm table lists %d engines, want 7", len(es))
	}
	slices.SortFunc(es, func(a, b *engine.Engine) int { return strings.Compare(a.Name, b.Name) })
	return es
}

// engineModes lists the modes an engine may support.
func engineModes() []engine.Config {
	return []engine.Config{
		{MinSup: 1, Closed: true},
		{MinSup: 4, Closed: true},
		{MinSup: 1},
		{MinSup: 4},
	}
}

// checkWork asserts the machine-independent work bound of a closed run: the
// seam probed exactly the cells fixing dim the shard jobs recorded, those
// are the emitted ones, and the survivors are the emitted wildcard slice —
// nothing proportional to the tuple count.
func checkWork(t *testing.T, st Stats, got []core.Cell, dim int) {
	t.Helper()
	var fixed, wild int64
	for _, c := range got {
		if c.Values[dim] == core.Star {
			wild++
		} else {
			fixed++
		}
	}
	if st.Probes != st.Recorded {
		t.Fatalf("probes %d != recorded %d", st.Probes, st.Recorded)
	}
	if st.Recorded != fixed || st.Candidates-st.Killed != wild {
		t.Fatalf("stats %+v: emitted %d cells fixing dim %d and %d wildcard ones", st, fixed, dim, wild)
	}
}

// TestRunMatchesSequential is the core equivalence property: for every
// engine, mode and dataset, the parallel driver emits cell-for-cell the same
// cube as a direct sequential run.
func TestRunMatchesSequential(t *testing.T) {
	for name, tbl := range testTables(t) {
		shards := wantShards[name]
		for _, eng := range engines(t) {
			engName, caps := eng.Name, eng.Caps
			for _, ecfg := range engineModes() {
				if (ecfg.Closed && !caps.Closed) || (!ecfg.Closed && !caps.Iceberg) {
					continue
				}
				label := fmt.Sprintf("%s/%s/minsup=%d/closed=%v", name, engName, ecfg.MinSup, ecfg.Closed)
				t.Run(label, func(t *testing.T) {
					var want sink.Collector
					if err := eng.Run(tbl, ecfg, &want); err != nil {
						t.Fatal(err)
					}
					cfgs := []Config{
						{Workers: 1, Dim: -1},
						{Workers: 4, Dim: -1},
						{Workers: 4, Dim: 2},
					}
					if spilledTables[name] {
						// Fewer files than values, and more asked for than zipf
						// and onevalue have values (60 and 16).
						cfgs = append(cfgs,
							Config{Workers: 1, Dim: -1, Buckets: 3, TempDir: t.TempDir()},
							Config{Workers: 2, Dim: -1, Buckets: 64, TempDir: t.TempDir()})
					}
					for _, cfg := range cfgs {
						var got sink.Collector
						st, err := run(tbl, eng, ecfg, cfg, &got)
						if err != nil {
							t.Fatal(err)
						}
						if diff := sink.DiffCells(got.Cells, want.Cells, 10); diff != "" {
							t.Fatalf("cfg %+v: parallel output differs from sequential:\n%s", cfg, diff)
						}
						if cfg.Dim < 0 && (st.HeavyShards > 0 != shards.heavy || st.BucketShards > 0 != shards.buckets) {
							t.Fatalf("cfg %+v: %d heavy and %d bucketed shards", cfg, st.HeavyShards, st.BucketShards)
						}
						if ecfg.Closed {
							checkWork(t, st, got.Cells, max(cfg.Dim, 0))
						}
					}
				})
			}
		}
	}
}

// TestSeamRule pins the seam rule on a hand-built relation whose second and
// third dimensions move together, so the projection's closed cells are the
// apex and one (*, k, k) per k.
func TestSeamRule(t *testing.T) {
	rows := [][3]core.Value{
		{0, 0, 0}, {0, 0, 0}, // (*,0,0):2 = minsup, all in partition 0: covered by (0,0,0):2
		{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, // (*,1,1):3, all in partition 1: covered by (1,1,1):3
		{0, 2, 2}, {0, 2, 2}, {2, 2, 2}, // (*,2,2):3, (0,2,2):2 projects onto it with a smaller count: survives
		{0, 3, 3}, {1, 3, 3}, // (*,3,3):2 = minsup, no partition reaches minsup: survives
	}
	tbl := table.New(3, len(rows))
	copy(tbl.Cards, []int{3, 4, 4})
	for tid, r := range rows {
		for d, v := range r {
			tbl.Cols[d][tid] = v
		}
	}
	ecfg := engine.Config{MinSup: 2, Closed: true}
	for _, eng := range engines(t) {
		if !eng.Caps.Closed {
			continue
		}
		t.Run(eng.Name, func(t *testing.T) {
			var seq sink.Collector
			if err := eng.Run(tbl, ecfg, &seq); err != nil {
				t.Fatal(err)
			}
			var got sink.Collector
			st, err := run(tbl, eng, ecfg, Config{Workers: 2, Dim: 0}, &got)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sink.DiffCells(got.Cells, seq.Cells, 10); diff != "" {
				t.Fatalf("differs from the sequential cells:\n%s", diff)
			}
			wild := map[string]int64{}
			for _, c := range got.Cells {
				if c.Values[0] == core.Star {
					wild[c.String()] = c.Count
				}
			}
			wantWild := map[string]int64{"(*, *, * : 10)": 10, "(*, b2, c2 : 3)": 3, "(*, b3, c3 : 2)": 2}
			if !maps.Equal(wild, wantWild) {
				t.Fatalf("wildcard slice %v, want %v", wild, wantWild)
			}
			if st.Candidates != 5 || st.Killed != 2 {
				t.Fatalf("stats %+v, want 5 candidates, 2 killed", st)
			}
			checkWork(t, st, got.Cells, 0)
		})
	}
}

// TestRunRandomized draws small relations — dimensionality, cardinalities,
// skew, size, engine, mode, threshold, pruning ablations and workers per
// case — and checks Run against the engine.
func TestRunRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260117))
	engs := engines(t)
	tmp := t.TempDir()
	for i := 0; i < 240; i++ {
		cards := make([]int, 2+rng.Intn(4))
		for d := range cards {
			cards[d] = 1 + rng.Intn(12)
		}
		if rng.Intn(4) == 0 {
			cards[0] = 50 + rng.Intn(400) // more values than most of them hold tuples
		}
		tbl, err := gen.Synthetic(gen.Config{T: 20 + rng.Intn(280), Cards: cards, S: 2 * rng.Float64(), Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		eng := engs[i%len(engs)]
		caps := eng.Caps
		ecfg := engine.Config{MinSup: 1 + rng.Int63n(4), Closed: caps.Closed && (!caps.Iceberg || rng.Intn(2) == 0)}
		if rng.Intn(3) == 0 {
			// Ablated: pruning is where single-value shards get their speed,
			// never the correctness.
			ecfg.DisableLemma5, ecfg.DisableLemma6, ecfg.DisableShortcut = rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
		}
		label := fmt.Sprintf("case %d: %s %+v cards %v T %d", i, eng.Name, ecfg, cards, tbl.NumTuples())

		var want sink.Collector
		if err := eng.Run(tbl, ecfg, &want); err != nil {
			t.Fatal(label, err)
		}
		// Every case runs in memory and spilled, over one to five files.
		cfg := Config{Workers: 1 + rng.Intn(4), Dim: -1, TempDir: tmp}
		for _, cfg.Buckets = range []int{0, 1 + i%5} {
			var got sink.Collector
			if err := Run(tbl, eng, ecfg, cfg, &got); err != nil {
				t.Fatal(label, err)
			}
			if diff := sink.DiffCells(got.Cells, want.Cells, 10); diff != "" {
				t.Fatalf("%s: Run with %d buckets differs from the engine:\n%s", label, cfg.Buckets, diff)
			}
		}
	}
}

// TestSeamWorkIgnoresTupleCount is the work bound behind the speed-up: the
// same relation with every tuple three times over, at three times the
// threshold, has the same cells, and the seam must do exactly the same work —
// it joins cells, it does not scan tuples.
func TestSeamWorkIgnoresTupleCount(t *testing.T) {
	tbl := testTables(t)["zipf"]
	n := tbl.NumTuples()
	triple := table.New(tbl.NumDims(), 3*n)
	copy(triple.Cards, tbl.Cards)
	for d, col := range tbl.Cols {
		for k := 0; k < 3; k++ {
			copy(triple.Cols[d][k*n:], col)
		}
	}
	eng := &startree.Engine
	work := func(tbl *table.Table, minsup int64) Stats {
		st, err := run(tbl, eng, engine.Config{MinSup: minsup, Closed: true}, Config{Workers: 2, Dim: -1}, &sink.Null{})
		if err != nil {
			t.Fatal(err)
		}
		return Stats{Candidates: st.Candidates, Killed: st.Killed, Recorded: st.Recorded, Probes: st.Probes}
	}
	once, thrice := work(tbl, 2), work(triple, 6)
	if once != thrice || once.Probes == 0 || once.Killed == 0 {
		t.Fatalf("seam work %+v on the relation, %+v on its triple", once, thrice)
	}
}

// watch wraps CC(Star) to see what the driver hands an engine: the shape of
// every run, how many full-width runs are in flight at once, and — through
// before, called ahead of each run with the number of runs started so far —
// the state of the spill directory while the pool works.
type watch struct {
	nd     int // the relation's dimensionality: shard runs have it, the projection pass one less
	before func(started int)

	mu            sync.Mutex
	runs          [][2]int // (NumTuples, NumDims) per run
	inFlight, max int
}

func (w *watch) engine() *engine.Engine {
	return &engine.Engine{Name: "watch", Caps: startree.Engine.Caps, Cube: w.cube}
}

func (w *watch) cube(t *table.Table, cfg engine.Config, out sink.Sink) error {
	w.mu.Lock()
	started := len(w.runs)
	w.runs = append(w.runs, [2]int{t.NumTuples(), t.NumDims()})
	if t.NumDims() == w.nd {
		w.inFlight++
		w.max = max(w.max, w.inFlight)
		defer func() {
			w.mu.Lock()
			w.inFlight--
			w.mu.Unlock()
		}()
	}
	w.mu.Unlock()
	w.before(started)
	return startree.Engine.Cube(t, cfg, out)
}

// bucketFiles lists the bucket files of every run in flight under tmp.
func bucketFiles(t *testing.T, tmp string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(tmp, "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSpilledWorkAndResidency is the machine-independent bound of the spilled
// path: nothing cubes the whole relation at full width (the projection pass is
// the one run over every tuple, a dimension narrower), the shard runs split
// the tuples between them, no more of them are in flight — hence no more
// buckets resident — than there are workers, the directory never holds more
// files than asked for, and it is gone afterwards.
func TestSpilledWorkAndResidency(t *testing.T) {
	tbl := testTables(t)["zipf"]
	T, D := tbl.NumTuples(), tbl.NumDims()
	const buckets = 5
	for _, workers := range []int{1, 3} {
		tmp := t.TempDir()
		var filesMu sync.Mutex
		maxFiles := 0
		w := &watch{nd: D, before: func(int) {
			n := len(bucketFiles(t, tmp))
			filesMu.Lock()
			maxFiles = max(maxFiles, n)
			filesMu.Unlock()
		}}
		cfg := Config{Workers: workers, Dim: -1, Buckets: buckets, TempDir: tmp}
		// MinSup 1: Engine.Run keeps a shard with fewer tuples than the
		// threshold away from the cubing function, and the watch counts tuples.
		if err := Run(tbl, w.engine(), engine.Config{MinSup: 1, Closed: true}, cfg, &sink.Null{}); err != nil {
			t.Fatal(err)
		}
		whole, projections, shardTuples := 0, 0, 0
		for _, r := range w.runs {
			switch {
			case r == [2]int{T, D}:
				whole++
			case r == [2]int{T, D - 1}:
				projections++
			}
			if r[1] == D {
				shardTuples += r[0]
			}
		}
		if whole != 0 || projections != 1 || shardTuples != T {
			t.Fatalf("workers %d: %d runs over the whole relation, %d over its projection, shard runs over %d of %d tuples: %v",
				workers, whole, projections, shardTuples, T, w.runs)
		}
		if w.max > workers || maxFiles == 0 || maxFiles > buckets {
			t.Fatalf("workers %d: %d shard runs in flight, up to %d files for %d buckets", workers, w.max, maxFiles, buckets)
		}
		if left := bucketFiles(t, tmp); len(left) != 0 {
			t.Fatalf("workers %d: left behind %v", workers, left)
		}
	}
}

// TestSpilledLoadFailure cuts the largest bucket file short while the
// projection pass — the first job — runs. Its load is the next job: the error
// must surface, no shard may be cubed after it, and the directory must go.
func TestSpilledLoadFailure(t *testing.T) {
	tbl := testTables(t)["zipf"]
	tmp := t.TempDir()
	w := &watch{nd: tbl.NumDims(), before: func(started int) {
		if started != 0 {
			return
		}
		var largest string
		var size int64
		for _, f := range bucketFiles(t, tmp) {
			if fi, err := os.Stat(f); err == nil && fi.Size() > size {
				largest, size = f, fi.Size()
			}
		}
		if err := os.Truncate(largest, size-1); err != nil {
			t.Error(err)
		}
	}}
	cfg := Config{Workers: 1, Dim: -1, Buckets: 5, TempDir: tmp}
	err := Run(tbl, w.engine(), engine.Config{MinSup: 2, Closed: true}, cfg, &sink.Null{})
	if err == nil || !strings.Contains(err.Error(), "bucket-") {
		t.Fatalf("truncated bucket: error %v", err)
	}
	if len(w.runs) != 1 {
		t.Fatalf("runs after the failed load: %v", w.runs)
	}
	if left := bucketFiles(t, tmp); len(left) != 0 {
		t.Fatalf("left behind %v", left)
	}
}

// TestRunNativeMeasure checks native measure values survive the parallel
// decomposition for both measure-capable engines (iceberg and closed mode).
func TestRunNativeMeasure(t *testing.T) {
	tbl := testTables(t)["skewed"]
	aux := make([]float64, tbl.NumTuples())
	for i := range aux {
		aux[i] = float64(i%13) - 3.5
	}
	tbl.Aux = aux
	defer func() { tbl.Aux = nil }()

	cases := []struct {
		eng  *engine.Engine
		ecfg engine.Config
	}{
		{&buc.Engine, engine.Config{MinSup: 3, Measure: core.MeasureSum}},
		{&buc.Engine, engine.Config{MinSup: 3, Measure: core.MeasureAvg}},
		{&qcdfs.Engine, engine.Config{MinSup: 1, Closed: true, Measure: core.MeasureSum}},
		{&qcdfs.Engine, engine.Config{MinSup: 3, Closed: true, Measure: core.MeasureMax}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%v", c.eng.Name, c.ecfg.Measure), func(t *testing.T) {
			eng := c.eng
			var want sink.Collector
			if err := eng.Run(tbl, c.ecfg, &want); err != nil {
				t.Fatal(err)
			}
			var got sink.Collector
			if err := Run(tbl, eng, c.ecfg, Config{Workers: 4}, &got); err != nil {
				t.Fatal(err)
			}
			wantAux := auxByKey(t, want.Cells)
			gotAux := auxByKey(t, got.Cells)
			if len(wantAux) != len(gotAux) {
				t.Fatalf("got %d cells, want %d", len(gotAux), len(wantAux))
			}
			for k, wa := range wantAux {
				ga, ok := gotAux[k]
				if !ok {
					t.Fatalf("missing cell %q", k)
				}
				if math.Abs(ga-wa) > 1e-9 {
					t.Fatalf("aux mismatch: got %g want %g", ga, wa)
				}
			}
		})
	}
}

func auxByKey(t *testing.T, cells []core.Cell) map[string]float64 {
	t.Helper()
	m := make(map[string]float64, len(cells))
	for _, c := range cells {
		k := c.Key()
		if _, dup := m[k]; dup {
			t.Fatalf("duplicate cell %v", c.Values)
		}
		m[k] = c.Aux
	}
	return m
}

// TestRunPropagatesEngineError runs an engine that fails on tables over a
// size threshold, so the shard jobs succeed and the final pass fails.
func TestRunPropagatesEngineError(t *testing.T) {
	tbl := testTables(t)["skewed"]
	errEngine := &engine.Engine{Name: "err-engine", Caps: engine.Capabilities{Iceberg: true},
		Cube: func(t *table.Table, cfg engine.Config, out sink.Sink) error {
			if t.NumTuples() > 10 {
				return fmt.Errorf("table too large: %d tuples", t.NumTuples())
			}
			return nil
		}}
	err := Run(tbl, errEngine, engine.Config{MinSup: 1}, Config{Workers: 3}, &sink.Null{})
	if err == nil {
		t.Fatal("engine error did not propagate")
	}
}

// TestRunEnforcesCapabilities: the mode an engine cannot compute is refused
// by the engine itself, below the facade's check, and nothing is emitted.
func TestRunEnforcesCapabilities(t *testing.T) {
	tbl := testTables(t)["skewed"]
	for _, c := range []struct {
		eng    *engine.Engine
		closed bool
		want   string
	}{
		{&qcdfs.Engine, false, "QC-DFS computes closed cubes only"},
		{&buc.Engine, true, "BUC computes iceberg cubes only"},
	} {
		for _, workers := range []int{1, 3} {
			var got sink.Collector
			err := Run(tbl, c.eng, engine.Config{MinSup: 1, Closed: c.closed}, Config{Workers: workers}, &got)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s closed=%v workers=%d: error %v, want %q", c.eng.Name, c.closed, workers, err, c.want)
			}
			if len(got.Cells) != 0 {
				t.Errorf("%s closed=%v workers=%d: emitted %d cells", c.eng.Name, c.closed, workers, len(got.Cells))
			}
		}
	}
}

// TestRunSingleDim checks the degenerate one-dimension fallback.
func TestRunSingleDim(t *testing.T) {
	tbl, err := gen.Synthetic(gen.Config{T: 200, Cards: []int{5}, S: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := &startree.Engine
	var want, got sink.Collector
	if err := eng.Run(tbl, engine.Config{MinSup: 1, Closed: true}, &want); err != nil {
		t.Fatal(err)
	}
	if err := Run(tbl, eng, engine.Config{MinSup: 1, Closed: true}, Config{Workers: 4}, &got); err != nil {
		t.Fatal(err)
	}
	if diff := sink.DiffCells(got.Cells, want.Cells, 10); diff != "" {
		t.Fatalf("single-dim output differs:\n%s", diff)
	}
}
