// Command ccgen generates the synthetic and weather-like datasets of the
// paper's evaluation as CSV, for use with ccube or external tools.
//
// Usage:
//
//	ccgen -synth T=100000,D=8,C=100,S=1,R=2,seed=7 -o data.csv
//	ccgen -weather 1002752,8 -o weather.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"ccubing"
	"ccubing/internal/table"
)

func main() {
	var (
		synth   = flag.String("synth", "", "synthetic spec: T=..,D=..,C=..,S=..,R=..,seed=..")
		weather = flag.String("weather", "", "weather-like dataset: tuples,dims")
		out     = flag.String("o", "-", "output file (default stdout)")
	)
	flag.Parse()

	ds, err := ccubing.OpenDataset("", *synth, *weather)
	if err != nil {
		fatal(err)
	}
	t := ds.Table()

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := table.WriteCSV(bw, t, nil, true); err != nil {
		fatal(err)
	}
	if err := bw.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ccgen: wrote %d tuples, %d dimensions\n", t.NumTuples(), t.NumDims())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccgen:", err)
	os.Exit(1)
}
