package mmcubing

import (
	"ccubing/internal/engine"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// ccMM adapts this package to the engine registry as C-Cubing(MM) /
// MM-Cubing (the Closed flag selects which).
type ccMM struct{}

func (ccMM) Name() string { return "CC(MM)" }

func (ccMM) Capabilities() engine.Capabilities {
	// MM-Cubing factorizes the lattice space and is insensitive to
	// dimension order. Measures aggregate through the dense arrays and the
	// shortcut (paper Sec. 6.1).
	return engine.Capabilities{Closed: true, Iceberg: true}
}

func (ccMM) Run(t *table.Table, cfg engine.Config, out sink.Sink) error {
	return Run(t, Config{
		MinSup:          cfg.MinSup,
		Closed:          cfg.Closed,
		DenseBudget:     cfg.DenseBudget,
		DisableShortcut: cfg.DisableShortcut,
		Measure:         cfg.Measure,
	}, out)
}

func init() { engine.Register(ccMM{}) }
