// Package engine defines what a cubing engine is: a declared value — name,
// capabilities, cubing function — and the one Config every engine reads. Each
// of the seven engine packages exports one such value; the facade (package
// ccubing) lists them in its algorithm table, and every caller — the facade,
// internal/parallel's shard jobs, internal/refresh, internal/expt — enters an
// engine through Engine.Run, which holds the single copy of the checks they
// all share.
package engine

import (
	"fmt"

	"ccubing/internal/core"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Config is the one parameter set of the paper's Sec. 5 comparison. Engines
// read the fields they understand and ignore the rest.
type Config struct {
	// MinSup is the iceberg threshold on count; drivers default it to 1.
	MinSup int64
	// Closed computes the closed (iceberg) cube instead of the plain
	// iceberg cube.
	Closed bool
	// Measure optionally aggregates the table's Aux column during the cubing
	// pass (paper Sec. 6.1); every engine delivers the stored aggregate
	// (core.MeasureAgg.Stored; avg as its running sum) with each emitted cell.
	Measure core.MeasureKind
	// DenseBudget overrides the MM-Cubing dense array budget, in cells.
	DenseBudget int
	// DisableLemma5, DisableLemma6 and DisableShortcut switch off individual
	// closed-pruning devices, NoStarReduction the star engine's star
	// reduction, for ablation studies; outputs must not change.
	DisableLemma5   bool
	DisableLemma6   bool
	DisableShortcut bool
	NoStarReduction bool
}

// Capabilities declares what an engine can compute. Run enforces Closed and
// Iceberg; drivers read OrderSensitive to decide whether dimension reordering
// applies.
type Capabilities struct {
	// Closed: the engine can compute closed (iceberg) cubes.
	Closed bool
	// Iceberg: the engine can compute plain (non-closed) iceberg cubes.
	Iceberg bool
	// OrderSensitive: the engine's cost depends on dimension order, so
	// dimension-ordering strategies (paper Sec. 5.5) should be applied
	// before it runs. MM-Cubing is order-free; the tree engines are not.
	OrderSensitive bool
}

// Engine is one cubing algorithm. A test substitutes a fake by building one.
type Engine struct {
	// Name is the engine's display name, matching the paper's figures
	// (e.g. "CC(Star)").
	Name string
	Caps Capabilities
	// Cube computes the cube of t under cfg and emits every output cell into
	// out. Run has already checked cfg and t, and t holds at least cfg.MinSup
	// tuples. It must not retain t or out after returning, and must be safe
	// for concurrent calls on distinct tables (the parallel driver runs one
	// engine from many goroutines).
	Cube func(t *table.Table, cfg Config, out sink.Sink) error
}

// Check reports why cfg cannot run on e over a relation with or without a
// measure column. Run starts with it; the facade calls it first to reject a
// request before any work is set up.
func (e *Engine) Check(cfg Config, hasAux bool) error {
	switch {
	case cfg.MinSup < 1:
		return fmt.Errorf("%s: min_sup %d < 1", e.Name, cfg.MinSup)
	case cfg.Closed && !e.Caps.Closed:
		return fmt.Errorf("%s computes iceberg cubes only; pick a closed-capable engine for closed cubes", e.Name)
	case !cfg.Closed && !e.Caps.Iceberg:
		return fmt.Errorf("%s computes closed cubes only", e.Name)
	case cfg.Measure != core.MeasureNone && !hasAux:
		return fmt.Errorf("%s: measure %v requested but dataset has no measure column", e.Name, cfg.Measure)
	}
	return nil
}

// Run checks cfg and t, then computes the cube of t into out.
func (e *Engine) Run(t *table.Table, cfg Config, out sink.Sink) error {
	if err := e.Check(cfg, t.Aux != nil); err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("%s: %w", e.Name, err)
	}
	if int64(t.NumTuples()) < cfg.MinSup {
		return nil // no cell can reach min_sup
	}
	return e.Cube(t, cfg, out)
}
