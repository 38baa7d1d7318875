package ccubing

// Seeded randomized cross-engine equivalence: beyond parallel_test.go's two
// fixed datasets, this sweeps engines × dimension orders × worker counts ×
// min_sup × closed/iceberg × measures over small random relations, asserting
// every configuration emits the identical sorted cell set (and measure values
// matching the attachMeasure post-pass oracle).

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/cubestore"
)

// randomEquivalenceDataset draws a small relation with random shape.
func randomEquivalenceDataset(t *testing.T, rng *rand.Rand) *Dataset {
	t.Helper()
	nd := 3 + rng.Intn(3)
	cards := make([]int, nd)
	for d := range cards {
		cards[d] = 2 + rng.Intn(8)
	}
	cfg := SyntheticConfig{
		T:     150 + rng.Intn(400),
		Cards: cards,
		Skew:  rng.Float64() * 1.5,
		Seed:  rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		cfg.Dependence = 1 + rng.Float64()*2
	}
	ds, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCrossEngineEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	closedEngines := []Algorithm{AlgMM, AlgStar, AlgStarArray, AlgQCDFS, AlgQCTree, AlgOBBUC}
	icebergEngines := []Algorithm{AlgMM, AlgStar, AlgStarArray, AlgBUC}
	orders := []OrderStrategy{OrderOriginal, OrderByEntropy}
	workerCounts := []int{0, 3}

	for trial := 0; trial < 3; trial++ {
		ds := randomEquivalenceDataset(t, rng)
		minsups := []int64{1, int64(2 + rng.Intn(4))}
		for _, closed := range []bool{true, false} {
			engines := icebergEngines
			reference := AlgBUC
			if closed {
				engines = closedEngines
				reference = AlgQCDFS
			}
			for _, minsup := range minsups {
				want, _, err := ComputeCollect(ds, Options{MinSup: minsup, Closed: closed, Algorithm: reference})
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range engines {
					for _, ord := range orders {
						for _, w := range workerCounts {
							opt := Options{
								MinSup: minsup, Closed: closed,
								Algorithm: alg, Order: ord, Workers: w,
							}
							name := fmt.Sprintf("trial%d/%v/closed=%v/minsup=%d/%v/workers=%d",
								trial, alg, closed, minsup, ord, w)
							got, _, err := ComputeCollect(ds, opt)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if len(got) != len(want) {
								t.Fatalf("%s: %d cells, reference %v has %d",
									name, len(got), reference, len(want))
							}
							got, want = sortedCells(got), sortedCells(want)
							for i := range got {
								if got[i].Count != want[i].Count {
									t.Fatalf("%s: cell %d count %d, want %d (%v)",
										name, i, got[i].Count, want[i].Count, want[i].Values)
								}
								for d := range got[i].Values {
									if got[i].Values[d] != want[i].Values[d] {
										t.Fatalf("%s: cell %d values %v, want %v",
											name, i, got[i].Values, want[i].Values)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCrossEngineMeasuresRandomized checks the measure dimension of the
// sweep: every engine aggregates the measure during its cubing pass, and for
// all seven engines × sum/min/max/avg the result must agree with the
// attachMeasure post-pass oracle (count-only compute, then a rescan) —
// sequentially, sharded across workers, and through the out-of-core partition
// driver. For the closed-capable engines, Materialize must additionally
// freeze a store byte-identical to one built from the oracle's cells.
func TestCrossEngineMeasuresRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(774))
	kinds := []MeasureKind{MeasureSum, MeasureMin, MeasureMax, MeasureAvg}
	modes := []struct {
		alg    Algorithm
		closed bool
	}{
		{AlgMM, true}, {AlgStar, true}, {AlgStarArray, true},
		{AlgQCDFS, true}, {AlgQCTree, true}, {AlgOBBUC, true},
		{AlgBUC, false},
	}
	const minsup = 2
	for trial := 0; trial < 3; trial++ {
		ds := randomEquivalenceDataset(t, rng)
		aux := make([]float64, ds.NumTuples())
		for i := range aux {
			aux[i] = float64(rng.Intn(64)) / 4
		}
		if err := ds.SetMeasure(aux); err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			for _, mode := range modes {
				name := fmt.Sprintf("trial%d/%v/%v", trial, mode.alg, kind)
				opt := Options{MinSup: minsup, Closed: mode.closed, Algorithm: mode.alg}
				stored, _, err := ComputeCollect(ds, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := attachMeasure(ds, stored, kind); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// attachMeasure fills stored aggregates (avg as the running
				// sum); Compute presents at egress, so present the oracle the
				// same way.
				post := make([]Cell, len(stored))
				for i, c := range stored {
					post[i] = Cell{Values: c.Values, Count: c.Count, Aux: core.Present(kind, c.Aux, c.Count)}
				}
				post = sortedCells(post)

				opt.Measure = kind
				runs := map[string]func() ([]Cell, error){
					"sequential": func() ([]Cell, error) {
						cells, _, err := ComputeCollect(ds, opt)
						return cells, err
					},
					"workers=3": func() ([]Cell, error) {
						wopt := opt
						wopt.Workers = 3
						cells, _, err := ComputeCollect(ds, wopt)
						return cells, err
					},
					"partitioned": func() ([]Cell, error) {
						var cells []Cell
						_, err := ComputePartitioned(ds, opt, PartitionOptions{Buckets: 3, TempDir: t.TempDir()}, func(c Cell) {
							cells = append(cells, Cell{Values: append([]int32(nil), c.Values...), Count: c.Count, Aux: c.Aux})
						})
						return cells, err
					},
				}
				for run, compute := range runs {
					native, err := compute()
					if err != nil {
						t.Fatalf("%s/%s: %v", name, run, err)
					}
					native = sortedCells(native)
					if len(native) != len(post) {
						t.Fatalf("%s/%s: %d native cells vs %d post cells", name, run, len(native), len(post))
					}
					for i := range native {
						if native[i].Count != post[i].Count || native[i].Aux != post[i].Aux {
							t.Fatalf("%s/%s: cell %v native (%d,%g), post-pass (%d,%g)",
								name, run, native[i].Values,
								native[i].Count, native[i].Aux, post[i].Count, post[i].Aux)
						}
					}
				}

				if !mode.closed {
					continue
				}
				ob := cubestore.NewBuilder(ds.NumDims(), true)
				for _, c := range stored {
					ob.Add(c.Values, c.Count, c.Aux)
				}
				if err := ob.SetResidual(cubestore.ComputeResidual(ds.t.Cols, ds.t.Aux, minsup, kind)); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				oracle, err := ob.Build()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var want bytes.Buffer
				if err := oracle.Save(&want); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, w := range []int{0, 3} {
					mopt := opt
					mopt.Workers = w
					cube, err := Materialize(ds, mopt)
					if err != nil {
						t.Fatalf("%s/materialize workers=%d: %v", name, w, err)
					}
					var got bytes.Buffer
					if err := cube.snap().Store.Save(&got); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("%s/materialize workers=%d: store differs from the attachMeasure oracle's (%d vs %d bytes)",
							name, w, got.Len(), want.Len())
					}
				}
			}
		}
	}
}
