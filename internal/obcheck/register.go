package obcheck

import (
	"ccubing/internal/engine"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// obbucEngine adapts this package to the engine registry. OB-BUC is BUC
// enumeration with output-based closedness checking, closed mode only.
type obbucEngine struct{}

func (obbucEngine) Name() string { return "OB-BUC" }

func (obbucEngine) Capabilities() engine.Capabilities {
	return engine.Capabilities{Closed: true}
}

func (obbucEngine) Run(t *table.Table, cfg engine.Config, out sink.Sink) error {
	return Run(t, Config{MinSup: cfg.MinSup, Measure: cfg.Measure}, out)
}

func init() { engine.Register(obbucEngine{}) }
