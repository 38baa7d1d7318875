package qcdfs

import (
	"ccubing/internal/engine"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// qcdfsEngine adapts this package to the engine registry. QC-DFS computes
// closed (quotient) cubes only.
type qcdfsEngine struct{}

func (qcdfsEngine) Name() string { return "QC-DFS" }

func (qcdfsEngine) Capabilities() engine.Capabilities {
	return engine.Capabilities{Closed: true}
}

func (qcdfsEngine) Run(t *table.Table, cfg engine.Config, out sink.Sink) error {
	return Run(t, Config{MinSup: cfg.MinSup, Measure: cfg.Measure}, out)
}

func init() { engine.Register(qcdfsEngine{}) }
