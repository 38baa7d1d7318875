// Package engine defines the interface every cubing engine implements and a
// registry the seven engine packages register into. The facade (package
// ccubing) and the one driver that runs engines (internal/parallel) dispatch
// through this registry instead of hard-coded switches, and validate requests
// against declared capabilities instead of per-algorithm special cases.
package engine

import (
	"fmt"

	"ccubing/internal/core"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Config is the union of the per-engine knobs the facade exposes. Engines
// read the fields they understand and ignore the rest; Validate rejects
// combinations an engine's capabilities rule out before Run is called.
type Config struct {
	// MinSup is the iceberg threshold on count; drivers default it to 1.
	MinSup int64
	// Closed computes the closed (iceberg) cube instead of the plain
	// iceberg cube.
	Closed bool
	// Measure optionally aggregates the table's Aux column during the cubing
	// pass (paper Sec. 6.1); every engine delivers the stored aggregate with
	// each emitted cell.
	Measure core.MeasureKind
	// DenseBudget overrides the MM-Cubing dense array budget, in cells.
	DenseBudget int
	// DisableLemma5, DisableLemma6 and DisableShortcut switch off individual
	// closed-pruning devices for ablation studies.
	DisableLemma5   bool
	DisableLemma6   bool
	DisableShortcut bool
}

// Capabilities declares what a registered engine can compute. Drivers use it
// to validate options and to decide which transformations (dimension
// reordering, parallel decomposition) apply.
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

// Engine is one cubing algorithm. Run computes the cube of t under cfg and
// emits every output cell into out; implementations must be safe for
// concurrent Run calls on distinct tables (the parallel driver runs one
// engine instance from many goroutines).
type Engine interface {
	// Name is the engine's display name, matching the paper's figures
	// (e.g. "CC(Star)").
	Name() string
	// Capabilities declares what the engine supports.
	Capabilities() Capabilities
	// Run computes the cube. It must not retain t or out after returning.
	Run(t *table.Table, cfg Config, out sink.Sink) error
}

// Validate checks cfg against e's capabilities and the table's shape,
// returning a descriptive error for unsupported combinations. hasAux reports
// whether the relation carries a measure column.
func Validate(e Engine, hasAux bool, cfg Config) error {
	caps := e.Capabilities()
	if cfg.Closed && !caps.Closed {
		return fmt.Errorf("%s computes iceberg cubes only; pick a closed-capable engine for closed cubes", e.Name())
	}
	if !cfg.Closed && !caps.Iceberg {
		return fmt.Errorf("%s computes closed cubes only", e.Name())
	}
	if cfg.Measure != core.MeasureNone && !hasAux {
		return fmt.Errorf("measure %v requested but dataset has no measure column", cfg.Measure)
	}
	return nil
}
