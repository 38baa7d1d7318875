package stararray

import (
	"ccubing/internal/engine"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// ccStarArray adapts this package to the engine registry as
// C-Cubing(StarArray) / StarArray (the Closed flag selects which).
type ccStarArray struct{}

func (ccStarArray) Name() string { return "CC(StarArray)" }

func (ccStarArray) Capabilities() engine.Capabilities {
	// Measures ride the multiway traversal: merged nodes and pool folds
	// carry the stored aggregate exactly like count.
	return engine.Capabilities{Closed: true, Iceberg: true, OrderSensitive: true}
}

func (ccStarArray) Run(t *table.Table, cfg engine.Config, out sink.Sink) error {
	return Run(t, Config{
		MinSup:        cfg.MinSup,
		Closed:        cfg.Closed,
		DisableLemma5: cfg.DisableLemma5,
		DisableLemma6: cfg.DisableLemma6,
		Measure:       cfg.Measure,
	}, out)
}

func init() { engine.Register(ccStarArray{}) }
