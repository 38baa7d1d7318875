package obs

// Steady-state allocation gate for the record path: Counter.Add, Gauge.Set
// and Histogram.Observe sit on the query hot path (cube probes, cache hits),
// so they must be pure atomic arithmetic — zero allocations per record. The
// collector is off for the measured window, so the counts are exact.

import (
	"runtime/debug"
	"testing"
	"time"
)

func TestRecordAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the record path; counts are not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := NewRegistry()
	c := r.Counter("alloc_total", "help")
	g := r.Gauge("alloc_gauge", "help")
	h := r.Histogram("alloc_seconds", "help")
	c.Inc()
	g.Set(1)
	h.Observe(time.Millisecond)

	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(42) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(137 * time.Microsecond) }},
	} {
		if n := testing.AllocsPerRun(1000, op.f); n != 0 {
			t.Fatalf("%s allocates %v per op; want 0", op.name, n)
		}
	}
}
