package main

import (
	"io"
	"strings"
	"testing"
)

func mkRef(ns, allocs float64) map[string]bench {
	return map[string]bench{
		"BenchmarkHot": {Name: "BenchmarkHot", NsPerOp: ns, AllocsPerOp: allocs},
	}
}

func mkFresh(ns, allocs float64, iters int64) map[string]bench {
	return map[string]bench{
		"BenchmarkHot": {Name: "BenchmarkHot-8", NsPerOp: ns, AllocsPerOp: allocs, Iterations: iters},
	}
}

func cfg(minIters int64) compareConfig {
	return compareConfig{
		tolerance: 0.20,
		minIters:  minIters,
		gate:      map[string]bool{"BenchmarkHot": true},
		newPath:   "NEW.json",
	}
}

func TestRegressionAboveFloorFails(t *testing.T) {
	res := compare(io.Discard, mkFresh(1500, 0, 100), mkRef(1000, 0), cfg(5))
	if len(res.failures) != 1 || len(res.warnings) != 0 {
		t.Fatalf("want 1 failure, 0 warnings; got %v / %v", res.failures, res.warnings)
	}
	if !strings.Contains(res.failures[0], "ns/op 1000 -> 1500") {
		t.Fatalf("failure does not name the regression: %q", res.failures[0])
	}
}

func TestRegressionBelowFloorDowngradesToWarning(t *testing.T) {
	res := compare(io.Discard, mkFresh(1500, 0, 3), mkRef(1000, 0), cfg(5))
	if len(res.failures) != 0 || len(res.warnings) != 1 {
		t.Fatalf("want 0 failures, 1 warning; got %v / %v", res.failures, res.warnings)
	}
	w := res.warnings[0]
	if !strings.Contains(w, "3 iterations") || !strings.Contains(w, "floor of 5") {
		t.Fatalf("warning does not explain the floor: %q", w)
	}
	if !strings.Contains(w, "rerun standalone") || !strings.Contains(w, "-bench='^BenchmarkHot$'") {
		t.Fatalf("warning lacks the standalone rerun hint: %q", w)
	}
}

func TestFloorDisabledKeepsFailing(t *testing.T) {
	res := compare(io.Discard, mkFresh(1500, 0, 3), mkRef(1000, 0), cfg(0))
	if len(res.failures) != 1 || len(res.warnings) != 0 {
		t.Fatalf("floor 0 must gate as before; got %v / %v", res.failures, res.warnings)
	}
}

func TestAllocsRegressionRespectsFloor(t *testing.T) {
	// +4 allocs from 1: past both the relative tolerance and the +2 flutter
	// band, so it gates — as a warning under the floor, a failure above it.
	res := compare(io.Discard, mkFresh(1000, 5, 3), mkRef(1000, 1), cfg(5))
	if len(res.failures) != 0 || len(res.warnings) != 1 {
		t.Fatalf("below floor: want warning; got %v / %v", res.failures, res.warnings)
	}
	res = compare(io.Discard, mkFresh(1000, 5, 50), mkRef(1000, 1), cfg(5))
	if len(res.failures) != 1 || len(res.warnings) != 0 {
		t.Fatalf("above floor: want failure; got %v / %v", res.failures, res.warnings)
	}
}

func TestWithinToleranceIsClean(t *testing.T) {
	res := compare(io.Discard, mkFresh(1100, 0, 3), mkRef(1000, 0), cfg(5))
	if len(res.failures) != 0 || len(res.warnings) != 0 {
		t.Fatalf("10%% under a 20%% tolerance must pass; got %v / %v", res.failures, res.warnings)
	}
}

func TestMissingCriticalBenchmarkFails(t *testing.T) {
	res := compare(io.Discard, map[string]bench{}, mkRef(1000, 0), cfg(5))
	if len(res.failures) != 1 || !strings.Contains(res.failures[0], "missing from NEW.json") {
		t.Fatalf("missing critical benchmark must fail; got %v", res.failures)
	}
}

func TestRerunHintEscapesRegexpMeta(t *testing.T) {
	name := "BenchmarkCubeQuery/workers=-1"
	fresh := map[string]bench{name: {Name: name, NsPerOp: 2000, Iterations: 2}}
	ref := map[string]bench{name: {Name: name, NsPerOp: 1000}}
	c := cfg(5)
	c.gate = map[string]bool{name: true}
	res := compare(io.Discard, fresh, ref, c)
	if len(res.warnings) != 1 {
		t.Fatalf("want a warning; got %v / %v", res.failures, res.warnings)
	}
	if !strings.Contains(res.warnings[0], "-bench='^BenchmarkCubeQuery/workers=-1$'") {
		t.Fatalf("hint mangled the name: %q", res.warnings[0])
	}
}

// TestMemOnlyGateIgnoresWallClock pins the ":mem" gate: a socket benchmark's
// ns/op may move freely, its allocs/op and B/op may not.
func TestMemOnlyGateIgnoresWallClock(t *testing.T) {
	c := cfg(5)
	c.memOnly = map[string]bool{"BenchmarkHot": true}
	ref := map[string]bench{"BenchmarkHot": {Name: "BenchmarkHot", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 4096}}
	fresh := func(ns, allocs, bytes float64) map[string]bench {
		return map[string]bench{"BenchmarkHot": {Name: "BenchmarkHot-8", NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes, Iterations: 100}}
	}
	if res := compare(io.Discard, fresh(5000, 100, 4096), ref, c); len(res.failures) != 0 {
		t.Fatalf("a wall-clock move must not fail a :mem gate; got %v", res.failures)
	}
	if res := compare(io.Discard, fresh(1000, 100, 8192), ref, c); len(res.failures) != 1 || !strings.Contains(res.failures[0], "B/op 4096 -> 8192") {
		t.Fatalf("want the B/op regression named; got %v", res.failures)
	}
	if res := compare(io.Discard, fresh(1000, 150, 4096), ref, c); len(res.failures) != 1 || !strings.Contains(res.failures[0], "allocs/op") {
		t.Fatalf("want the allocs/op regression named; got %v", res.failures)
	}
}

// TestAllocsOnlyGate pins the ":allocs" gate: a snapshot load's ns/op and
// B/op (the snapshot's size) may move freely, its allocs/op may not.
func TestAllocsOnlyGate(t *testing.T) {
	c := cfg(5)
	c.allocsOnly = map[string]bool{"BenchmarkHot": true}
	ref := map[string]bench{"BenchmarkHot": {Name: "BenchmarkHot", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 4096}}
	fresh := func(ns, allocs, bytes float64) map[string]bench {
		return map[string]bench{"BenchmarkHot": {Name: "BenchmarkHot-8", NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes, Iterations: 100}}
	}
	if res := compare(io.Discard, fresh(5000, 100, 8192), ref, c); len(res.failures) != 0 {
		t.Fatalf("wall clock and B/op must not fail an :allocs gate; got %v", res.failures)
	}
	if res := compare(io.Discard, fresh(1000, 150, 4096), ref, c); len(res.failures) != 1 || !strings.Contains(res.failures[0], "allocs/op") {
		t.Fatalf("want the allocs/op regression named; got %v", res.failures)
	}
}
