// Weather: the paper's real-data scenario. Materializes the closed iceberg
// cube of the weather-like relation (high-cardinality, strongly dependent —
// see internal/gen/weather.go for the simulator standing in for SEP83L.DAT), then mines
// closed rules (paper Sec. 6.2) and reports the compression the paper
// highlights: "while there are 462k closed cells, we can get 57k closed
// rules".
//
// Run with: go run ./examples/weather
package main

import (
	"fmt"
	"log"

	"ccubing"
)

func main() {
	// 60k reports over all 8 dimensions (scale up for the full 1M-tuple
	// experience; the shapes are the same).
	ds, err := ccubing.Weather(1, 60000, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weather relation: %d tuples, dims:", ds.NumTuples())
	for d, name := range ds.Names() {
		fmt.Printf(" %s(%d)", name, ds.Cardinalities()[d])
	}
	fmt.Println()

	const minsup = 10
	cube, err := ccubing.Materialize(ds, ccubing.Options{
		MinSup:    minsup,
		Algorithm: ccubing.AlgStarArray, // high cardinality: C-Cubing(StarArray)
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cube.Close()
	stats := cube.Stats()
	var cells []ccubing.Cell
	cube.Cells(func(c ccubing.Cell) bool {
		cells = append(cells, c)
		return true
	})
	fmt.Printf("closed iceberg cube (min_sup=%d): %d cells, %.2f MB, %s\n",
		minsup, len(cells), stats.MB(), stats.Elapsed.Round(1000000))

	// Closed rules: a compact representation of the cube's semantics.
	rs, err := ccubing.MineRules(ds, cells)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closed rules: %d (%.1f%% of the closed cell count)\n",
		len(rs), 100*float64(len(rs))/float64(len(cells)))
	fmt.Println("sample rules (dimension=value implications found in the data):")
	for i, r := range rs {
		if i == 5 {
			break
		}
		fmt.Println("  ", r)
	}

	// The dependence the paper describes: "when a certain weather condition
	// appears at the same time of the day, there is always a unique value
	// for solar altitude" — visible as rules targeting dimension 6 (solar).
	solar := 0
	for _, r := range rs {
		for _, d := range r.TargDims {
			if d == 6 {
				solar++
				break
			}
		}
	}
	fmt.Printf("rules determining solar altitude: %d\n", solar)

	// The materialized closed cube is a lossless substitute for the full
	// iceberg cube: any cell's count is answerable, closed or not.
	probe := make([]int32, ds.NumDims())
	for d := range probe {
		probe[d] = ccubing.Star
	}
	apex, _ := cube.Query(probe)
	fmt.Printf("cube: %d cuboids; apex query answers %d tuples\n", cube.NumCuboids(), apex)
}
