package mmcubing

import (
	"runtime/debug"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/gen"
	"ccubing/internal/sink"
)

// mmAllocs is the exact count TestMMAllocs pins.
const mmAllocs = 288

// partitions counts the distinct sparse partitions whose dense phase emitted
// a cell, reading the fixed values off the runner at each emit.
type partitions struct {
	r    *runner
	seen map[string]bool
}

func (p *partitions) Emit([]core.Value, int64, float64) {
	fixed := make([]core.Value, p.r.nd)
	for d := range fixed {
		fixed[d] = core.Star
		if p.r.fixedMask.Has(d) {
			fixed[d] = p.r.vals[d]
		}
	}
	p.seen[core.CellKey(fixed)] = true
}

// TestMMAllocs is the exact allocation gate of one C-Cubing(MM) run: closed,
// with a sum measure, over a seeded relation, at a dense budget small enough
// that the recursion builds many spaces. Every dense phase reuses the run's
// Arena and every mm call its depth's frame, so the count is the run's setup
// plus the growth of those buffers, whatever the number of spaces.
func TestMMAllocs(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 4000, D: 5, C: 12, S: 1, Seed: 31})
	tb.Aux = make([]float64, tb.NumTuples())
	for i := range tb.Aux {
		tb.Aux[i] = float64(1 + i%13)
	}
	cfg := engine.Config{MinSup: 4, Closed: true, Measure: core.MeasureSum, DenseBudget: 64}

	p := &partitions{seen: map[string]bool{}}
	p.r = newRunner(tb, cfg, p)
	p.r.run()
	if len(p.seen) < 500 {
		t.Fatalf("the dense phases of %d partitions emitted; want at least 500", len(p.seen))
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var null sink.Null
	n := testing.AllocsPerRun(5, func() {
		if err := Engine.Run(tb, cfg, &null); err != nil {
			t.Fatal(err)
		}
	})
	if n != mmAllocs {
		t.Fatalf("one CC(MM) run allocates %v times; want %d", n, mmAllocs)
	}
}
