// Command ccbench reproduces the paper's evaluation (Figs. 3-18): for each
// figure it regenerates the workloads, runs the compared algorithms with
// output disabled, and prints the series the figure plots.
//
// Usage:
//
//	ccbench -list
//	ccbench -fig fig05 -scale 0.1
//	ccbench -fig all -scale 0.05 | tee results.txt
//
// -scale multiplies tuple counts; 1.0 is paper scale (0.2M-1M tuples per
// dataset), the default 0.1 keeps a full sweep in the minutes range.
// Absolute seconds are not comparable to the paper's 2005 C++/P4 testbed;
// the orderings and crossovers are the reproduction target (README,
// "Testing and benchmarks").
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"ccubing/internal/expt"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to run: fig03..fig18, or all")
		scale   = flag.Float64("scale", 0.1, "tuple-count scale factor (1.0 = paper scale)")
		list    = flag.Bool("list", false, "list figures and exit")
		workers = flag.Int("workers", 1, "engine goroutines per run (0/1 = sequential as in the paper, n>1 = n workers, negative = all CPU cores)")
	)
	flag.Parse()
	resolved := expt.SetWorkers(*workers)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	if *list {
		for _, f := range expt.Figures(*scale) {
			fmt.Fprintf(w, "%s  %-55s [%s]\n", f.ID, f.Title, f.Params)
		}
		return
	}

	var figs []expt.Figure
	if *fig == "all" {
		figs = expt.Figures(*scale)
	} else {
		f, err := expt.Find(*fig, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			os.Exit(1)
		}
		figs = []expt.Figure{f}
	}
	fmt.Fprintf(w, "ccbench scale=%g (1.0 = paper scale) workers=%d\n\n", *scale, resolved)
	for _, f := range figs {
		w.Flush()
		if err := expt.Report(w, f); err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			os.Exit(1)
		}
	}
}
