// Command ccube computes a (closed) iceberg cube from a CSV file or a
// generated dataset and streams the cells to stdout.
//
// Usage:
//
//	ccube -csv data.csv -minsup 10 -closed -alg stararray
//	ccube -synth T=100000,D=8,C=100,S=1,R=0,seed=1 -minsup 4 -closed -workers -1
//	ccube -weather 100000,8 -minsup 10 -closed -rules
//	ccube -csv data.csv -minsup 10 -store cube.ccube -quiet
//	ccube -csv data.csv -append delta.ndjson -refresh-every 500 -store cube.ccube
//	ccube -csv data.csv -delete gone.ndjson -store cube.ccube
//
// Output rows are "v0,v1,*,v3,count"; a summary line goes to stderr. -store
// materializes the closed cube (implying -closed) and writes a snapshot that
// ccserve -snapshot serves directly. -append streams an NDJSON delta file
// (one tuple per line: an array of labels or coded values, or
// {"row": [...], "aux": x}) into the materialized cube and folds it in with
// partition-scoped incremental refresh before any output; -refresh-every N
// refreshes every N appended rows instead of once at the end. -delete
// streams tombstones in the same format — each tuple removes one matching
// occurrence — and may combine with -append (appends fold first).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ccubing"
	"ccubing/internal/algs"
	"ccubing/internal/order"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ccube:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, rejects flag combinations before any
// dataset is loaded, and streams the cells to stdout. Whatever it has written
// when it fails is flushed before it returns the error.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("ccube", flag.ExitOnError)
	var (
		csvPath = fs.String("csv", "", "CSV input file (header row = dimension names)")
		synth   = fs.String("synth", "", "synthetic dataset spec: T=..,D=..,C=..,S=..,R=..,seed=..")
		weather = fs.String("weather", "", "weather-like dataset: tuples,dims (e.g. 100000,8)")
		algName = fs.String("alg", "auto", "algorithm: "+algs.Usage(false))
		minsup  = fs.Int64("minsup", 1, "iceberg threshold on count")
		closed  = fs.Bool("closed", false, "compute the closed iceberg cube")
		ordName = fs.String("order", "Org", "dimension order: Org|Card|Entropy")
		quiet   = fs.Bool("quiet", false, "suppress cell output (timing only)")
		doRules = fs.Bool("rules", false, "mine closed rules from the result (closed mode)")
		workers = fs.Int("workers", 1, "engine goroutines (0/1 = sequential, n>1 = n workers, negative = all CPU cores)")
		store   = fs.String("store", "", "materialize the closed cube and write a snapshot to this path (implies -closed)")
		appnd   = fs.String("append", "", "NDJSON file of rows to append and fold in with incremental refresh before output (implies -closed)")
		del     = fs.String("delete", "", "NDJSON file of tombstones to fold in with incremental refresh before output (implies -closed; each tuple removes one matching occurrence)")
		every   = fs.Int("refresh-every", 0, "with -append: refresh every N appended rows instead of once at the end")
		sel     = fs.String("select", "", "sub-cube selection, one predicate per dimension: * | value | lo..hi | a|b|c (implies -closed; output is the matching closed cells, or aggregate rows with -groupby/-topk)")
		groupBy = fs.String("groupby", "", "comma-separated dimension names (or indices) to group the -select result by")
		topk    = fs.Int("topk", 0, "keep only the k best aggregate rows (with -select)")
		byFlag  = fs.String("by", "count", "top-k ranking measure: count|aux")
	)
	fs.Parse(args) // ExitOnError: a bad flag has exited, nothing written yet
	materialize := *store != "" || *sel != "" || *appnd != "" || *del != ""
	switch {
	case *doRules && !*closed && !materialize:
		return fmt.Errorf("-rules requires -closed")
	case *doRules && *sel != "":
		return fmt.Errorf("-rules cannot combine with -select")
	case *every != 0 && *appnd == "":
		return fmt.Errorf("-refresh-every needs -append")
	}
	alg, err := ccubing.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	ord, err := order.ParseStrategy(*ordName)
	if err != nil {
		return err
	}
	ds, err := ccubing.OpenDataset(*csvPath, *synth, *weather)
	if err != nil {
		return err
	}

	opt := ccubing.Options{
		MinSup:    *minsup,
		Closed:    *closed || materialize,
		Algorithm: alg,
		Order:     ord,
		Workers:   *workers, // library convention: 0/1 sequential, negative = NumCPU
	}
	w := bufio.NewWriter(stdout)
	defer func() {
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
	}()

	var cells []ccubing.Cell
	var st ccubing.Stats
	tuples := ds.NumTuples()
	if materialize {
		// Materialize into the serving store; snapshot, query and the
		// streamed output (and rule input) all derive from the stored cells.
		cube, err := ccubing.Materialize(ds, opt)
		if err != nil {
			return err
		}
		if *appnd != "" {
			// Fold the delta in before any output, so the snapshot and the
			// streamed cells describe the refreshed cube.
			if err := runMutate(stderr, cube, *appnd, *every, false); err != nil {
				return err
			}
		}
		if *del != "" {
			if err := runMutate(stderr, cube, *del, *every, true); err != nil {
				return err
			}
		}
		if *store != "" {
			if err := cube.SaveFile(*store); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "ccube: stored %d closed cells (%d cuboids, %d bytes in memory) in %s\n",
				cube.NumCells(), cube.NumCuboids(), cube.Bytes(), *store)
		}
		if *sel != "" {
			if err := runSelect(w, stderr, cube, *sel, *groupBy, *topk, *byFlag, *quiet); err != nil {
				return err
			}
		} else {
			cube.Cells(func(c ccubing.Cell) bool {
				if !*quiet {
					writeCell(w, c)
				}
				if *doRules {
					cells = append(cells, c)
				}
				return true
			})
		}
		st = cube.Stats()
		if *appnd != "" || *del != "" {
			// The summary describes the refreshed cube, not the initial build.
			tuples = int(cube.SourceRows())
			st.Cells = cube.NumCells()
		}
	} else {
		visit := func(c ccubing.Cell) {
			if !*quiet {
				writeCell(w, c)
			}
			if *doRules {
				vals := make([]int32, len(c.Values))
				copy(vals, c.Values)
				cells = append(cells, ccubing.Cell{Values: vals, Count: c.Count})
			}
		}
		if st, err = ccubing.Compute(ds, opt, visit); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "ccube: %s  tuples=%d dims=%d minsup=%d closed=%v  cells=%d size=%.2fMB elapsed=%s\n",
		st.Algorithm, tuples, ds.NumDims(), opt.MinSup, opt.Closed, st.Cells, st.MB(), st.Elapsed)

	if *doRules {
		rs, err := ccubing.MineRules(ds, cells)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "ccube: %d closed rules from %d closed cells (%.1f%%)\n",
			len(rs), len(cells), 100*float64(len(rs))/float64(max(1, len(cells))))
		for _, r := range rs {
			fmt.Fprintln(w, "# rule:", r.String())
		}
	}
	return nil
}

// runMutate streams the NDJSON delta file into the cube — appended tuples,
// or tombstones with tombstone set — and folds it in: with every > 0 a
// refresh fires inside each batch that reaches that many buffered rows (the
// incremental serving cadence); the final refresh folds the remainder.
// Per-refresh stats go to stderr.
func runMutate(stderr io.Writer, cube *ccubing.Cube, path string, every int, tombstone bool) error {
	if every < 0 {
		return fmt.Errorf("negative -refresh-every %d", every)
	}
	if every > 0 {
		if err := cube.AutoRefresh(ccubing.AutoRefreshOptions{Rows: every}); err != nil {
			return err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	gen := cube.Generation()
	verb := "appended"
	var n int
	if tombstone {
		verb = "deleted"
		n, err = cube.DeleteNDJSON(bufio.NewReader(f))
	} else {
		n, err = cube.AppendNDJSON(bufio.NewReader(f))
	}
	if err != nil {
		return err
	}
	st, err := cube.Refresh()
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ccube: %s %d rows in %d refreshes; generation=%d partitions=%d/%d retained=%d rebuilt=%d last=%s\n",
		verb, n, st.Generation-gen, st.Generation, st.PartitionsRecomputed, st.PartitionsTotal,
		st.CellsRetained, st.CellsRebuilt, st.Elapsed.Round(time.Microsecond))
	return nil
}

// runSelect executes the -select query over the materialized cube: a
// predicate slice of the closed cells, or — with -groupby/-topk — a group-by
// aggregation, streamed in the same "v0,v1,*,count" row format (suppressed
// by -quiet, summary on stderr either way).
func runSelect(w *bufio.Writer, stderr io.Writer, cube *ccubing.Cube, sel, groupBy string, topk int, by string, quiet bool) error {
	spec, err := cube.ParseSpec(strings.Split(sel, ","))
	if err != nil {
		return err
	}
	orderBy, err := ccubing.ParseOrderBy(by)
	if err != nil {
		return err
	}
	if groupBy == "" && topk == 0 {
		n := 0
		err := cube.Select(spec, func(c ccubing.Cell) bool {
			if !quiet {
				writeCell(w, c)
			}
			n++
			return true
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "ccube: select matched %d closed cells\n", n)
		return nil
	}
	opt := ccubing.AggregateOptions{TopK: topk, By: orderBy}
	if groupBy != "" {
		opt.GroupBy = strings.Split(groupBy, ",")
	}
	rows, exact, err := cube.Aggregate(spec, opt)
	if err != nil {
		return err
	}
	if !quiet {
		for _, c := range rows {
			writeCell(w, c)
		}
	}
	note := ""
	if !exact {
		note = " (iceberg cube: counts are lower bounds)"
	}
	fmt.Fprintf(stderr, "ccube: aggregate produced %d rows%s\n", len(rows), note)
	return nil
}

func writeCell(w *bufio.Writer, c ccubing.Cell) {
	for _, v := range c.Values {
		if v == ccubing.Star {
			w.WriteByte('*')
		} else {
			w.WriteString(strconv.Itoa(int(v)))
		}
		w.WriteByte(',')
	}
	w.WriteString(strconv.FormatInt(c.Count, 10))
	w.WriteByte('\n')
}
