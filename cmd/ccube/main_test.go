package main

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccubing"
	"ccubing/internal/order"
)

func newTestWriter(w io.Writer) *bufio.Writer { return bufio.NewWriter(w) }

func TestParseSynth(t *testing.T) {
	cfg, err := ccubing.ParseSyntheticSpec("T=5000,D=7,C=42,S=1.5,R=2,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.T != 5000 || cfg.D != 7 || cfg.C != 42 || cfg.Skew != 1.5 ||
		cfg.Dependence != 2 || cfg.Seed != 9 {
		t.Fatalf("cfg = %+v", cfg)
	}
	for _, bad := range []string{"T", "T=x", "Q=1", "T=1,,"} {
		if _, err := ccubing.ParseSyntheticSpec(bad); err == nil {
			t.Errorf("ParseSyntheticSpec(%q) should fail", bad)
		}
	}
}

// TestParseOrder pins the names -order accepts.
func TestParseOrder(t *testing.T) {
	cases := map[string]ccubing.OrderStrategy{
		"org": ccubing.OrderOriginal, "Original": ccubing.OrderOriginal,
		"card": ccubing.OrderByCardinality, "Entropy": ccubing.OrderByEntropy,
	}
	for in, want := range cases {
		got, err := order.ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := order.ParseStrategy("zigzag"); err == nil {
		t.Fatal("unknown order should fail")
	}
}

// TestLoadDatasetValidation pins what -csv/-synth/-weather accept, the rule
// ccserve and ccgen share through ccubing.OpenDataset.
func TestLoadDatasetValidation(t *testing.T) {
	if _, err := ccubing.OpenDataset("", "", ""); err == nil {
		t.Fatal("no source should fail")
	}
	if _, err := ccubing.OpenDataset("a.csv", "T=1", ""); err == nil {
		t.Fatal("two sources should fail")
	}
	if _, err := ccubing.OpenDataset("", "", "abc"); err == nil {
		t.Fatal("malformed weather spec should fail")
	}
	if _, err := ccubing.OpenDataset(filepath.Join(t.TempDir(), "missing.csv"), "", ""); err == nil {
		t.Fatal("missing CSV file should fail")
	}
	ds, err := ccubing.OpenDataset("", "T=100,D=3,C=4", "")
	if err != nil || ds.NumTuples() != 100 {
		t.Fatalf("synth load: %v", err)
	}
	ds, err = ccubing.OpenDataset("", "", "200,5")
	if err != nil || ds.NumTuples() != 200 || ds.NumDims() != 5 {
		t.Fatalf("weather load: %v", err)
	}
	csv := filepath.Join(t.TempDir(), "d.csv")
	if err := os.WriteFile(csv, []byte("a,b\nx,y\nx,z\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err = ccubing.OpenDataset(csv, "", "")
	if err != nil || ds.NumTuples() != 2 || ds.NumDims() != 2 {
		t.Fatalf("csv load: %v", err)
	}
}

// TestLateFlagErrorKeepsOutput pins both halves of the -rules bug: a flag
// combination is rejected before anything is computed, and a run that fails
// after it has streamed cells still delivers them.
func TestLateFlagErrorKeepsOutput(t *testing.T) {
	const synth = "T=200,D=3,C=4,S=0,seed=1"
	var stdout, stderr strings.Builder
	if err := run([]string{"-synth", synth}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 1027 {
		t.Fatalf("plain run wrote %d bytes, want 1027", stdout.Len())
	}
	for _, args := range [][]string{
		{"-synth", synth, "-rules"},
		{"-synth", synth, "-rules", "-select", "*,*,*"},
		{"-synth", synth, "-refresh-every", "5"},
	} {
		stdout.Reset()
		stderr.Reset()
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%v: accepted", args)
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("%v: computed before rejecting: stdout %d bytes, stderr %q", args, stdout.Len(), stderr.String())
		}
	}

	// A late failure: the rule a -> x is mined from the cube after the append
	// gave (a, x) the count of (a, *), then verified against the relation
	// before it, where (a, y) contradicts it.
	dir := t.TempDir()
	csv, delta := filepath.Join(dir, "d.csv"), filepath.Join(dir, "delta.ndjson")
	if err := os.WriteFile(csv, []byte("d0,d1\na,x\na,y\nb,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(delta, []byte(`["a","x"]`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	err := run([]string{"-csv", csv, "-append", delta, "-rules"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "violated") {
		t.Fatalf("late failure: error %v, want a violated rule", err)
	}
	if got := strings.Count(stdout.String(), "\n"); got == 0 {
		t.Fatal("late failure lost the cells already written")
	}
}

// TestSaveCubeRoundTrip materializes, snapshots the way -store does and
// reloads the way ccserve -snapshot does — the hand-off between the two.
func TestSaveCubeRoundTrip(t *testing.T) {
	ds, err := ccubing.OpenDataset("", "T=200,D=3,C=5,seed=4", "")
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cube.ccube")
	if err := cube.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ccubing.LoadCubeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumCells() != cube.NumCells() || loaded.MinSup() != 2 {
		t.Fatalf("loaded %d cells minsup=%d, want %d cells minsup=2", loaded.NumCells(), loaded.MinSup(), cube.NumCells())
	}
	q := []int32{0, ccubing.Star, ccubing.Star}
	w1, ok1 := cube.Query(q)
	w2, ok2 := loaded.Query(q)
	if w1 != w2 || ok1 != ok2 {
		t.Fatalf("query mismatch: (%d,%v) vs (%d,%v)", w1, ok1, w2, ok2)
	}
}

// TestRunSelect drives the -select path: predicate slice, group-by
// aggregation and top-k, checked against the library's brute-force answer.
func TestRunSelect(t *testing.T) {
	ds, err := ccubing.OpenDataset("", "T=400,D=3,C=5,seed=8", "")
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Predicate slice: the output rows are exactly the matching closed cells.
	var sb strings.Builder
	w := newTestWriter(&sb)
	if err := runSelect(w, io.Discard, cube, "1,*,0..2", "", 0, "count", false); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	spec, err := cube.ParseSpec([]string{"1", "*", "0..2"})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	if err := cube.Select(spec, func(ccubing.Cell) bool { want++; return true }); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != want {
		t.Fatalf("select wrote %d rows, want %d", got, want)
	}

	// Group-by with top-k: ranked rows, one per group, truncated to k.
	sb.Reset()
	w = newTestWriter(&sb)
	if err := runSelect(w, io.Discard, cube, "*,*,0..2", "dim0", 2, "count", false); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("top-2 wrote %d rows: %q", len(lines), sb.String())
	}
	aggSpec, err := cube.ParseSpec([]string{"*", "*", "0..2"})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := cube.Aggregate(aggSpec, ccubing.AggregateOptions{GroupBy: []string{"dim0"}, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		var rsb strings.Builder
		rw := newTestWriter(&rsb)
		writeCell(rw, r)
		rw.Flush()
		if lines[i]+"\n" != rsb.String() {
			t.Fatalf("row %d = %q, want %q", i, lines[i], strings.TrimSuffix(rsb.String(), "\n"))
		}
	}

	// -quiet suppresses the row output but keeps the stderr summary path.
	sb.Reset()
	w = newTestWriter(&sb)
	if err := runSelect(w, io.Discard, cube, "1,*,0..2", "", 0, "count", true); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if sb.Len() != 0 {
		t.Fatalf("quiet select wrote %q", sb.String())
	}

	// Errors surface instead of silently producing empty output.
	if err := runSelect(w, io.Discard, cube, "1,*", "", 0, "count", false); err == nil {
		t.Fatal("wrong-arity select must error")
	}
	// -by is validated even on the plain select path (no -groupby/-topk).
	if err := runSelect(w, io.Discard, cube, "*,*,*", "", 0, "zigzag", false); err == nil {
		t.Fatal("unknown -by must error on the select path too")
	}
	if err := runSelect(w, io.Discard, cube, "*,*,*", "nope", 0, "count", false); err == nil {
		t.Fatal("unknown group-by dimension must error")
	}
	if err := runSelect(w, io.Discard, cube, "*,*,*", "dim0", 1, "zigzag", false); err == nil {
		t.Fatal("unknown -by must error")
	}
	if err := runSelect(w, io.Discard, cube, "*,*,*", "dim0", 1, "aux", false); err == nil {
		t.Fatal("-by aux without a measure must error")
	}
}

func TestWriteCell(t *testing.T) {
	var sb strings.Builder
	w := newTestWriter(&sb)
	writeCell(w, ccubing.Cell{Values: []int32{3, ccubing.Star}, Count: 7})
	w.Flush()
	if sb.String() != "3,*,7\n" {
		t.Fatalf("writeCell = %q", sb.String())
	}
}

// TestRunAppend drives the -append/-refresh-every path: an NDJSON delta is
// folded in with chunked refreshes and the cube matches a from-scratch
// materialization of the grown relation.
func TestRunAppend(t *testing.T) {
	ds, err := ccubing.OpenDataset("", "T=300,D=3,C=5,seed=12", "")
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	delta := filepath.Join(t.TempDir(), "delta.ndjson")
	var sb strings.Builder
	for i := 0; i < 25; i++ {
		sb.WriteString("[1,")
		sb.WriteString(strings.Repeat("0,", 1))
		sb.WriteString("2]\n")
	}
	if err := os.WriteFile(delta, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runMutate(io.Discard, cube, delta, 10, false); err != nil {
		t.Fatal(err)
	}
	// 25 rows at -refresh-every 10: two threshold refreshes plus the final
	// one folding the remainder.
	if got := cube.Generation(); got != 3 {
		t.Fatalf("generation = %d, want 3", got)
	}
	if cube.Backlog() != 0 {
		t.Fatalf("backlog = %d after runAppend", cube.Backlog())
	}
	count, ok := cube.Query([]int32{1, 0, 2})
	if !ok || count < 25 {
		t.Fatalf("appended cell = (%d,%v), want at least 25", count, ok)
	}
	if err := runMutate(io.Discard, cube, filepath.Join(t.TempDir(), "missing"), 0, false); err == nil {
		t.Fatal("missing delta file must fail")
	}
}

// TestRunDelete drives the -delete path: an NDJSON tombstone file is folded
// in and the served counts shrink to match the edited relation.
func TestRunDelete(t *testing.T) {
	ds, err := ccubing.OpenDataset("", "T=300,D=3,C=5,seed=12", "")
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ccubing.Materialize(ds, ccubing.Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Tombstone five copies of an existing tuple (appended first so the
	// multiplicity is guaranteed), plus the appended remainder.
	delta := filepath.Join(t.TempDir(), "delta.ndjson")
	if err := os.WriteFile(delta, []byte(strings.Repeat("[1,0,2]\n", 8)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runMutate(io.Discard, cube, delta, 0, false); err != nil {
		t.Fatal(err)
	}
	before, ok := cube.Query([]int32{1, 0, 2})
	if !ok || before < 8 {
		t.Fatalf("appended cell = (%d,%v), want at least 8", before, ok)
	}
	gone := filepath.Join(t.TempDir(), "gone.ndjson")
	if err := os.WriteFile(gone, []byte(strings.Repeat("[1,0,2]\n", 5)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runMutate(io.Discard, cube, gone, 0, true); err != nil {
		t.Fatal(err)
	}
	after, ok := cube.Query([]int32{1, 0, 2})
	if !ok || after != before-5 {
		t.Fatalf("cell after -delete = (%d,%v), want %d", after, ok, before-5)
	}
	if cube.Backlog() != 0 {
		t.Fatalf("backlog = %d after runMutate", cube.Backlog())
	}
	// A tombstone file overdrawing the relation fails cleanly.
	over := filepath.Join(t.TempDir(), "over.ndjson")
	if err := os.WriteFile(over, []byte(strings.Repeat("[1,0,2]\n", 10000)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runMutate(io.Discard, cube, over, 0, true); err == nil {
		t.Fatal("overdrawn tombstone file must fail")
	}
}
