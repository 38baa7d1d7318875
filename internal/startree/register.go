package startree

import (
	"ccubing/internal/engine"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// ccStar adapts this package to the engine registry as C-Cubing(Star) /
// Star-Cubing (the Closed flag selects which).
type ccStar struct{}

func (ccStar) Name() string { return "CC(Star)" }

func (ccStar) Capabilities() engine.Capabilities {
	// Measures ride the tree aggregation itself: nodes carry the stored
	// aggregate and child-tree merges combine it exactly like count.
	return engine.Capabilities{Closed: true, Iceberg: true, OrderSensitive: true}
}

func (ccStar) Run(t *table.Table, cfg engine.Config, out sink.Sink) error {
	return Run(t, Config{
		MinSup:        cfg.MinSup,
		Closed:        cfg.Closed,
		DisableLemma5: cfg.DisableLemma5,
		DisableLemma6: cfg.DisableLemma6,
		Measure:       cfg.Measure,
	}, out)
}

func init() { engine.Register(ccStar{}) }
