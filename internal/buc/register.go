package buc

import (
	"ccubing/internal/engine"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// bucEngine adapts this package to the engine registry. BUC prunes bottom-up
// on min_sup and has no closedness checking, so it is iceberg-only.
type bucEngine struct{}

func (bucEngine) Name() string { return "BUC" }

func (bucEngine) Capabilities() engine.Capabilities {
	return engine.Capabilities{Iceberg: true}
}

func (bucEngine) Run(t *table.Table, cfg engine.Config, out sink.Sink) error {
	return Run(t, Config{MinSup: cfg.MinSup, Measure: cfg.Measure}, out)
}

func init() { engine.Register(bucEngine{}) }
