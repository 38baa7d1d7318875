package main

import (
	"io"
	"strings"
	"testing"
)

var hotRef = map[string]bench{
	"BenchmarkHot": {Name: "BenchmarkHot", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 4096},
}

// mkFresh is a 3-iteration record, the benchtime scripts/bench.sh and CI use:
// the gate has to bite there.
func mkFresh(ns, allocs, bytes float64) map[string]bench {
	return map[string]bench{
		"BenchmarkHot": {Name: "BenchmarkHot-8", NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes, Iterations: 3},
	}
}

func cfg() compareConfig {
	return compareConfig{
		tolerance: 0.20,
		gate:      map[string]bool{"BenchmarkHot": true},
		newPath:   "NEW.json",
	}
}

func TestRegressionAboveFloorFails(t *testing.T) {
	failures := compare(io.Discard, mkFresh(1000, 150, 4096), hotRef, cfg())
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op 100 -> 150") {
		t.Fatalf("want one failure naming the regression; got %v", failures)
	}
}

// TestAllocsRegressionRespectsFloor pins the absolute +2 flutter band of
// near-zero-alloc benchmarks: 1 -> 3 is +200% and passes, 1 -> 4 fails.
func TestAllocsRegressionRespectsFloor(t *testing.T) {
	ref := map[string]bench{"BenchmarkHot": {Name: "BenchmarkHot", NsPerOp: 1000, AllocsPerOp: 1}}
	if failures := compare(io.Discard, mkFresh(1000, 3, 0), ref, cfg()); len(failures) != 0 {
		t.Fatalf("inside the band: got %v", failures)
	}
	if failures := compare(io.Discard, mkFresh(1000, 4, 0), ref, cfg()); len(failures) != 1 {
		t.Fatalf("past the band: want one failure; got %v", failures)
	}
}

func TestWithinToleranceIsClean(t *testing.T) {
	if failures := compare(io.Discard, mkFresh(1000, 110, 4096), hotRef, cfg()); len(failures) != 0 {
		t.Fatalf("10%% under a 20%% tolerance must pass; got %v", failures)
	}
}

func TestMissingCriticalBenchmarkFails(t *testing.T) {
	failures := compare(io.Discard, map[string]bench{}, hotRef, cfg())
	if len(failures) != 1 || !strings.Contains(failures[0], "missing from NEW.json") {
		t.Fatalf("missing critical benchmark must fail; got %v", failures)
	}
}

// TestAllocsOnlyGate pins the plain gate: ns/op is a printed column, not a
// verdict, and B/op (a snapshot load's is the snapshot's size) moves freely.
func TestAllocsOnlyGate(t *testing.T) {
	if failures := compare(io.Discard, mkFresh(5000, 100, 8192), hotRef, cfg()); len(failures) != 0 {
		t.Fatalf("wall clock and B/op must not fail a plain gate; got %v", failures)
	}
	var table strings.Builder
	compare(&table, mkFresh(5000, 100, 4096), hotRef, cfg())
	if !strings.Contains(table.String(), "+400.0%") {
		t.Fatalf("the ns/op delta must still be printed:\n%s", table.String())
	}
}

// TestMemOnlyGateIgnoresWallClock pins the ":mem" gate: a socket benchmark's
// ns/op may move freely, its allocs/op and B/op may not.
func TestMemOnlyGateIgnoresWallClock(t *testing.T) {
	c := cfg()
	c.mem = map[string]bool{"BenchmarkHot": true}
	if failures := compare(io.Discard, mkFresh(5000, 100, 4096), hotRef, c); len(failures) != 0 {
		t.Fatalf("a wall-clock move must not fail a :mem gate; got %v", failures)
	}
	if failures := compare(io.Discard, mkFresh(1000, 100, 8192), hotRef, c); len(failures) != 1 || !strings.Contains(failures[0], "B/op 4096 -> 8192") {
		t.Fatalf("want the B/op regression named; got %v", failures)
	}
	if failures := compare(io.Discard, mkFresh(1000, 150, 4096), hotRef, c); len(failures) != 1 || !strings.Contains(failures[0], "allocs/op") {
		t.Fatalf("want the allocs/op regression named; got %v", failures)
	}
}
