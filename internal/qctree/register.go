package qctree

import (
	"ccubing/internal/engine"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// qctreeEngine adapts this package to the engine registry. QC-Tree is QC-DFS
// plus QC-tree materialization, closed mode only.
type qctreeEngine struct{}

func (qctreeEngine) Name() string { return "QC-Tree" }

func (qctreeEngine) Capabilities() engine.Capabilities {
	return engine.Capabilities{Closed: true}
}

func (qctreeEngine) Run(t *table.Table, cfg engine.Config, out sink.Sink) error {
	return Run(t, qcdfs.Config{MinSup: cfg.MinSup, Measure: cfg.Measure}, out)
}

func init() { engine.Register(qctreeEngine{}) }
