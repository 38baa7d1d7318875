// Retail OLAP: the motivating scenario of iceberg cubing — a sales relation
// over (region, store, category, product, month, channel) where analysts
// want every combination that sold at least N units, compressed losslessly
// by closedness, with revenue aggregated as a complex measure (paper Sec. 6.1).
//
// Run with: go run ./examples/retail
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ccubing"
)

func main() {
	ds, revenue := buildSales(40000, 11)
	if err := ds.SetMeasure(revenue); err != nil {
		log.Fatal(err)
	}

	// Every engine folds the measure in the same pass as count. Lemma 1 of
	// the paper guarantees the count-closed cube loses no closed cells of any
	// other measure.
	opt := ccubing.Options{
		MinSup:    50,
		Closed:    true,
		Algorithm: ccubing.AlgAuto, // let the advisor pick (paper Sec. 5.3)
		Measure:   ccubing.MeasureSum,
	}
	cells, stats, err := ccubing.ComputeCollect(ds, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sales cube: %d tuples, %d dims -> %d closed iceberg cells (min_sup=%d) in %s via %s\n",
		ds.NumTuples(), ds.NumDims(), len(cells), opt.MinSup, stats.Elapsed.Round(1000000), stats.Algorithm)

	fmt.Println("\nbiggest closed cells with revenue:")
	for _, c := range topCells(cells, 5) {
		fmt.Printf("  %-60s revenue=%.0f\n", ds.FormatCell(c), c.Aux)
	}

	// Compare against the uncompressed iceberg cube to show the closed
	// compression ratio on dependent retail data (region determines
	// currency-like channel mixes, category determines products).
	ice, _, err := ccubing.ComputeCollect(ds, ccubing.Options{MinSup: opt.MinSup, Algorithm: ccubing.AlgMM})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\niceberg cells: %d, closed iceberg cells: %d (%.1f%% of iceberg)\n",
		len(ice), len(cells), 100*float64(len(cells))/float64(len(ice)))
}

// buildSales synthesizes a retail relation with realistic dependencies:
// store -> region (each store belongs to one region), product -> category.
func buildSales(n int, seed int64) (*ccubing.Dataset, []float64) {
	rng := rand.New(rand.NewSource(seed))
	const (
		regions    = 4
		stores     = 40
		categories = 8
		products   = 120
		months     = 12
		channels   = 3
	)
	storeRegion := make([]int, stores)
	for s := range storeRegion {
		storeRegion[s] = rng.Intn(regions)
	}
	productCat := make([]int, products)
	for p := range productCat {
		productCat[p] = rng.Intn(categories)
	}

	rows := make([][]int32, n)
	revenue := make([]float64, n)
	for i := range rows {
		store := rng.Intn(stores)
		product := int(float64(products) * rng.Float64() * rng.Float64()) // skewed
		month := rng.Intn(months)
		channel := rng.Intn(channels)
		rows[i] = []int32{
			int32(storeRegion[store]),
			int32(store),
			int32(productCat[product]),
			int32(product),
			int32(month),
			int32(channel),
		}
		revenue[i] = float64(5+rng.Intn(200)) + 0.99
	}
	ds, err := ccubing.NewDatasetFromValues(
		[]string{"region", "store", "category", "product", "month", "channel"}, rows)
	if err != nil {
		log.Fatal(err)
	}
	return ds, revenue
}

// topCells returns the k highest-count cells (copied).
func topCells(cells []ccubing.Cell, k int) []ccubing.Cell {
	out := append([]ccubing.Cell(nil), cells...)
	for i := 0; i < k && i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].Count > out[i].Count {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}
