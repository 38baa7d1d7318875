package refresh

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/cubestore"
	"ccubing/internal/engine"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// storeCells lists a store's cells by their rendering, with counts.
func storeCells(s *cubestore.Store) map[string]int64 {
	m := map[string]int64{}
	s.Walk(func(c core.Cell) bool {
		m[c.String()] = c.Count
		return true
	})
	return m
}

// TestFlushWildcardTransitions pins, one hand-built relation each, the ways a
// delta changes a wildcard cell's membership in the closed cube — the
// decisions the partition seam used to make and the delta pass plus
// MergeDelta make now. Every refreshed store must be byte-identical to a
// rebuild, and the named cell must enter or leave as the case says.
func TestFlushWildcardTransitions(t *testing.T) {
	for _, tc := range []struct {
		name          string
		base          [][]core.Value
		appends, dels [][]core.Value
		cell          string
		before, after bool
	}{{
		// (*,1,1) falls to one tuple: the pass never visits below minsup, so
		// only the merge, matching the tombstone, removes the old cell.
		name:   "tombstone drops below minsup",
		base:   [][]core.Value{{0, 1, 1}, {1, 1, 1}, {0, 0, 0}, {1, 0, 2}, {2, 2, 2}, {2, 2, 0}},
		dels:   [][]core.Value{{1, 1, 1}},
		cell:   "(*, b1, c1 : 2)",
		before: true,
	}, {
		// (*,0,*) keeps two tuples that agree on dimension 2: covered by (*,0,0).
		name:   "tombstone makes non-closed on a non-partition dimension",
		base:   [][]core.Value{{0, 0, 0}, {1, 0, 0}, {2, 0, 1}, {2, 1, 1}, {0, 1, 2}},
		dels:   [][]core.Value{{2, 0, 1}},
		cell:   "(*, b0, * : 3)",
		before: true,
	}, {
		// (*,0,0) keeps only partition 0's tuples: covered by (0,0,0).
		name:   "tombstone leaves one partition",
		base:   [][]core.Value{{0, 0, 0}, {0, 0, 0}, {1, 0, 0}, {1, 1, 1}, {2, 1, 2}},
		dels:   [][]core.Value{{1, 0, 0}},
		cell:   "(*, b0, c0 : 3)",
		before: true,
	}, {
		name:    "append lifts over minsup",
		base:    [][]core.Value{{0, 1, 2}, {0, 0, 0}, {1, 0, 0}, {2, 2, 1}, {2, 2, 1}},
		appends: [][]core.Value{{1, 1, 2}},
		cell:    "(*, b1, c2 : 2)",
		after:   true,
	}, {
		// (*,0,*) was covered by (*,0,0); the new tuple differs on dimension 2.
		name:    "append makes closed again",
		base:    [][]core.Value{{0, 0, 0}, {1, 0, 0}, {2, 1, 1}, {2, 2, 2}, {1, 2, 1}},
		appends: [][]core.Value{{2, 0, 1}},
		cell:    "(*, b0, * : 3)",
		after:   true,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			const minsup = 2
			cards := []int{3, 3, 3}
			m := testManager(t, tableFromRows(t, tc.base, cards), minsup)
			if _, in := storeCells(m.Snapshot().Store)[tc.cell]; in != tc.before {
				t.Fatalf("before the edit: %s in the cube = %v, want %v", tc.cell, in, tc.before)
			}
			if tc.appends != nil {
				if _, _, err := m.Append(tc.appends, nil); err != nil {
					t.Fatal(err)
				}
			}
			if tc.dels != nil {
				if _, _, err := m.Delete(tc.dels, nil); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			got := m.Snapshot().Store
			if _, in := storeCells(got)[tc.cell]; in != tc.after {
				t.Fatalf("after the edit: %s in the cube = %v, want %v", tc.cell, in, tc.after)
			}
			live := append([][]core.Value(nil), tc.base...)
			live = append(live, tc.appends...)
			for _, d := range tc.dels {
				for i, r := range live {
					if core.CellKey(r) == core.CellKey(d) {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
			want := buildStoreFor(t, tableFromRows(t, live, cards), minsup, core.MeasureNone, false)
			if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
				t.Fatalf("refreshed store differs from rebuild: %v, want %v", storeCells(got), storeCells(want))
			}
		})
	}
}

// TestDeltaPassWork checks the pass against the closed cube of the edited
// relation and holds it to its work bound. It must emit exactly the closed
// cells that some delta row matches — counts and stored measures bit for bit,
// min and max included — in at most (2·nd + 1)·Σ|c| visits, the sum over
// every cell c a delta row matches that clears minsup, and the same number of
// visits on every run. Two delta sizes: 30 rows, and as many rows as the
// relation has tuples, where the pass is held to the same bound rather than
// handed to a second code path.
func TestDeltaPassWork(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cards := []int{6, 5, 4, 3}
	nd := len(cards)
	for _, kind := range []core.MeasureKind{core.MeasureNone, core.MeasureSum, core.MeasureMin, core.MeasureMax} {
		for _, minsup := range []int64{1, 3} {
			tbl := randomTable(t, 400, cards, int64(kind)*10+minsup)
			tbl.Aux = make([]float64, tbl.NumTuples())
			for i := range tbl.Aux {
				tbl.Aux[i] = float64(rng.Intn(800)) / 8
			}
			for _, size := range []int{30, tbl.NumTuples()} {
				// Appends anywhere, tombstones of existing tuples.
				var delta []core.Value
				var aux []float64
				var kinds []byte
				for i := 0; i < size; i++ {
					if i%3 == 0 {
						tid := core.TID(i * 7 % tbl.NumTuples()) // distinct tuples: each tombstone has its own match
						delta = append(delta, tbl.Row(tid, nil)...)
						aux = append(aux, tbl.Aux[tid])
						kinds = append(kinds, OpDelete)
						continue
					}
					for d := range cards {
						delta = append(delta, core.Value(rng.Intn(cards[d])))
					}
					aux = append(aux, float64(rng.Intn(800))/8)
					kinds = append(kinds, OpAppend)
				}
				edited, _, _, err := applyDelta(tbl, delta, aux, kinds, nil)
				if err != nil {
					t.Fatal(err)
				}
				ecfg := engine.Config{MinSup: minsup, Closed: true, Measure: kind}
				if kind == core.MeasureNone {
					edited.Aux = nil
				}
				label := fmt.Sprintf("%v minsup %d |Δ| %d", kind, minsup, size)

				matched := func(vals []core.Value) bool {
					for r := 0; r < len(delta)/nd; r++ {
						if matches(vals, delta[r*nd:(r+1)*nd]) {
							return true
						}
					}
					return false
				}
				var oracle sink.Collector
				if err := qcdfs.Engine.Run(edited, ecfg, &oracle); err != nil {
					t.Fatal(err)
				}
				var want []core.Cell
				wantAux := map[string]float64{}
				for _, c := range oracle.Cells {
					if matched(c.Values) {
						want = append(want, c)
						wantAux[c.Key()] = c.Aux
					}
				}
				// Σ|c| over the matched cells that clear minsup, each cell once.
				var sum int64
				seen := map[string]bool{}
				for r := 0; r < len(delta)/nd; r++ {
					for sub := 0; sub < 1<<nd; sub++ {
						c := make([]core.Value, nd)
						for d := range c {
							c[d] = core.Star
							if sub&(1<<d) != 0 {
								c[d] = delta[r*nd+d]
							}
						}
						if seen[core.CellKey(c)] {
							continue
						}
						seen[core.CellKey(c)] = true
						var n int64
						for tid := 0; tid < edited.NumTuples(); tid++ {
							if matches(c, edited.Row(core.TID(tid), nil)) {
								n++
							}
						}
						if n >= minsup {
							sum += n
						}
					}
				}

				var visits []int64
				for run := 0; run < 2; run++ {
					p := newDeltaPass(edited, delta, ecfg, false)
					var got sink.Collector
					p.run(&got)
					if diff := sink.DiffCells(got.Cells, want, 10); diff != "" {
						t.Fatalf("%s: the pass differs from the matched cells of the closed cube:\n%s", label, diff)
					}
					for _, c := range got.Cells {
						if w := wantAux[c.Key()]; math.Float64bits(c.Aux) != math.Float64bits(w) {
							t.Fatalf("%s: %s stores %v, want %v", label, c, c.Aux, w)
						}
					}
					visits = append(visits, p.visits)
				}
				if bound := int64(2*nd+1) * sum; visits[0] != visits[1] || visits[0] == 0 || visits[0] > bound {
					t.Fatalf("%s: visits %v, want two equal counts in (0, %d]", label, visits, bound)
				}
			}
		}
	}
}

// matches reports whether the tuple row falls in the cell vals.
func matches(vals, row []core.Value) bool {
	for d, v := range vals {
		if v != core.Star && v != row[d] {
			return false
		}
	}
	return true
}

// TestApplyDeltaAllocs is the exact allocation gate of folding a delta that
// carries tombstones into the relation: the multiset probe of every base
// tuple allocates nothing, so the count does not depend on the relation's
// size — only the edited table, the survivor lists and the tombstone
// multiset are allocated.
func TestApplyDeltaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are not meaningful")
	}
	cards := []int{6, 5, 4}
	at := func(n int) float64 {
		base := randomTable(t, n, cards, 3)
		var rows []core.Value
		var kinds []byte
		for i := 0; i < 4; i++ {
			rows = append(rows, base.Row(core.TID(i), nil)...)
			kinds = append(kinds, OpDelete)
		}
		for i := 0; i < 8; i++ {
			rows = append(rows, core.Value(i%6), core.Value(i%5), core.Value(i%4))
			kinds = append(kinds, OpAppend)
		}
		var edited *table.Table
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		n2 := testing.AllocsPerRun(20, func() { edited, _, _, _ = applyDelta(base, rows, nil, kinds, nil) })
		if edited.NumTuples() != n+4 {
			t.Fatalf("edited relation has %d tuples, want %d", edited.NumTuples(), n+4)
		}
		return n2
	}
	if small, large := at(500), at(5000); small != large || small != applyDeltaAllocs {
		t.Fatalf("applyDelta allocates %v times over 500 base tuples, %v over 5000; want %d both", small, large, applyDeltaAllocs)
	}
}

// applyDeltaAllocs is the exact count TestApplyDeltaAllocs pins.
const applyDeltaAllocs = 24

// TestFlushAllocs is the exact allocation gate of a whole refresh at a fixed
// input: appends and tombstones over a seeded relation, an iceberg cube with
// its residual. A refresh is one goroutine with no pool, so the count repeats
// exactly; two identical managers must both allocate flushAllocs times.
func TestFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are not meaningful")
	}
	cards := []int{8, 6, 5, 4}
	flush := func() uint64 {
		base := randomTable(t, 2000, cards, 41)
		m, err := NewManager(base, buildStoreFor(t, base, 3, core.MeasureNone, true), nil, engine.Config{MinSup: 3, Closed: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(43))
		if _, _, err := m.Append(randomDelta(rng, cards, 40), nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Delete(tableRows(base)[:10], nil); err != nil {
			t.Fatal(err)
		}
		// As testing.AllocsPerRun: one P, so nothing else runs in the window,
		// and no collection in flight.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if a, b := flush(), flush(); a != b || a != flushAllocs {
		t.Fatalf("a refresh allocates %d and %d times; want %d both", a, b, flushAllocs)
	}
}

// flushAllocs is the exact count TestFlushAllocs pins.
const flushAllocs = 509
