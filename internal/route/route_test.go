package route

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// TestOwnerStable pins the FNV-1a mapping: these values are a wire contract
// between routers and shard workers — changing them strands deployed data.
func TestOwnerStable(t *testing.T) {
	for _, tc := range []struct {
		component string
		n, want   int
	}{
		{"", 4, 1}, // FNV-1a offset basis 2166136261 mod 4
		{"oslo", 2, 0},
		{"oslo", 4, 2},
		{"paris", 4, 0},
		{"0", 3, 0},
		{"17", 5, 3},
	} {
		if got := Owner(tc.component, tc.n); got != tc.want {
			t.Errorf("Owner(%q, %d) = %d, want %d", tc.component, tc.n, got, tc.want)
		}
	}
}

// TestOwnerRange checks every owner lands in [0, n) and the distribution
// touches every shard for a modest component universe.
func TestOwnerRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		seen := make([]bool, n)
		for i := 0; i < 1000; i++ {
			o := Owner(fmt.Sprintf("c%d", i), n)
			if o < 0 || o >= n {
				t.Fatalf("Owner out of range: %d for n=%d", o, n)
			}
			seen[o] = true
		}
		for o, ok := range seen {
			if !ok {
				t.Errorf("n=%d: shard %d never chosen", n, o)
			}
		}
	}
}

// TestOwnerAllocs gates the routing hash every routed request and shard-side
// delta filter runs: it must not allocate (the collector is off, so the count
// is exact).
func TestOwnerAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	component, owners := "some-component-label", 0
	if n := testing.AllocsPerRun(1000, func() { owners += Owner(component, 8) }); n != 0 {
		t.Fatalf("Owner allocates %v per call; want 0", n)
	}
}

func BenchmarkOwner(b *testing.B) {
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += Owner("some-component-label", 8)
	}
	_ = sink
}
