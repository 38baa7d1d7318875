// Package obcheck implements output-based closedness checking, the approach
// of closed frequent-pattern miners (CLOSET+, CHARM) that paper Sec. 2.2.2
// describes and argues against for cubes: already-found closed cells are
// kept in an in-memory index, and every new candidate is checked for
// subsumption against it.
//
// The engine is a BUC-order depth-first enumeration. For a candidate cell
// two checks decide closedness:
//
//   - forward: if any free dimension at or after the expansion position has
//     one shared value across the partition, a deeper cell with equal count
//     covers the candidate (a raw-data scan over the partition tail);
//   - backward: a cover extending the candidate only on earlier dimensions
//     was, by BUC's dimension-increasing DFS order, already output — the
//     candidate is probed against the index of previous outputs with equal
//     count.
//
// The index grows with the output — the paper's core criticism: "the output
// of cubing can be very large, and maintaining the index structure would
// become the major bottleneck". This package exists to make that trade-off
// measurable against aggregation-based checking.
package obcheck

import (
	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/psort"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// Engine is OB-BUC: BUC enumeration with output-based closedness checking,
// closed mode only.
var Engine = engine.Engine{Name: "OB-BUC", Caps: engine.Capabilities{Closed: true}, Cube: cube}

// indexKey is the two-level probe key of CLOSET+-style subsumption indices:
// a stored cover of a candidate must share the candidate's count and bind
// the candidate's last fixed (dimension, value) pair (covers extending on
// later dimensions are excluded by the forward check). Every stored cell is
// indexed under each of its bound pairs, multiplying the index footprint —
// the memory cost the paper criticizes.
type indexKey struct {
	count int64
	dim   int32
	val   core.Value
}

type runner struct {
	t     *table.Table
	cfg   engine.Config
	out   sink.Sink
	parts []psort.Partitioner
	tids  []core.TID
	vals  []core.Value
	// index maps probe keys to previously-output closed cells (packed
	// value vectors).
	index map[indexKey][]string
	stats
}

// cube computes the closed iceberg cube of t with output-based checking,
// emitting every closed cell with count >= MinSup exactly once.
func cube(t *table.Table, cfg engine.Config, out sink.Sink) error {
	cubeStats(t, cfg, out)
	return nil
}

// stats reports the cost drivers of output-based checking.
type stats struct {
	IndexedCells int64 // closed cells held in memory at the end
	IndexProbes  int64 // subsumption tests performed
	IndexEntries int64 // index postings (cells × bound dimensions): the memory driver
}

// cubeStats is cube, also returning index statistics.
func cubeStats(t *table.Table, cfg engine.Config, out sink.Sink) stats {
	n := t.NumTuples()
	r := &runner{
		t:     t,
		cfg:   cfg,
		out:   out,
		parts: make([]psort.Partitioner, t.NumDims()),
		tids:  make([]core.TID, n),
		vals:  make([]core.Value, t.NumDims()),
		index: make(map[indexKey][]string),
	}
	for i := range r.tids {
		r.tids[i] = core.TID(i)
	}
	for d := range r.vals {
		r.vals[d] = core.Star
	}
	r.recurse(0, n, 0)
	return r.stats
}

func (r *runner) recurse(lo, hi, dim int) {
	r.check(lo, hi, dim)
	nd := r.t.NumDims()
	for d := dim; d < nd; d++ {
		b := r.parts[d].Partition(r.tids[lo:hi], r.t.Cols[d], r.t.Cards[d])
		bVals := append([]core.Value(nil), b.Vals...)
		bOff := append([]int(nil), b.Off...)
		for i, v := range bVals {
			blo, bhi := lo+bOff[i], lo+bOff[i+1]
			if int64(bhi-blo) < r.cfg.MinSup {
				continue
			}
			r.vals[d] = v
			r.recurse(blo, bhi, d+1)
			r.vals[d] = core.Star
		}
	}
}

// check decides the candidate's closedness and emits/indexes it if closed.
func (r *runner) check(lo, hi, dim int) {
	part := r.tids[lo:hi]
	nd := r.t.NumDims()
	// Forward check: a shared value on a free dimension at/after the
	// expansion position means a deeper cover exists.
	for d := dim; d < nd; d++ {
		if r.vals[d] != core.Star {
			continue
		}
		col := r.t.Cols[d]
		shared := col[part[0]]
		all := true
		for _, tid := range part[1:] {
			if col[tid] != shared {
				all = false
				break
			}
		}
		if all {
			return
		}
	}
	// Backward check: probe the output index for a stored cover with equal
	// count. Covers extending the candidate on later dimensions were already
	// excluded by the forward check, so a relevant cover binds every fixed
	// pair of the candidate — in particular the last one, the probe key.
	count := int64(len(part))
	key := core.CellKey(r.vals)
	last := -1
	for d := nd - 1; d >= 0; d-- {
		if r.vals[d] != core.Star {
			last = d
			break
		}
	}
	if last >= 0 {
		k := indexKey{count: count, dim: int32(last), val: r.vals[last]}
		for _, stored := range r.index[k] {
			r.IndexProbes++
			if covers(stored, key, nd) {
				return
			}
		}
	}
	r.out.Emit(r.vals, count, core.FoldStored(r.cfg.Measure, r.t.Aux, part))
	for d := 0; d < nd; d++ {
		if r.vals[d] != core.Star {
			k := indexKey{count: count, dim: int32(d), val: r.vals[d]}
			r.index[k] = append(r.index[k], key)
			r.IndexEntries++
		}
	}
	r.IndexedCells++
}

// covers reports whether the stored packed cell covers the candidate packed
// cell: every fixed (non-Star) value of the candidate matches.
func covers(stored, cand string, nd int) bool {
	for d := 0; d < nd; d++ {
		o := 4 * d
		// Candidate Star (0xffffffff little-endian) imposes no constraint.
		if cand[o] == 0xff && cand[o+1] == 0xff && cand[o+2] == 0xff && cand[o+3] == 0xff {
			continue
		}
		if stored[o] != cand[o] || stored[o+1] != cand[o+1] ||
			stored[o+2] != cand[o+2] || stored[o+3] != cand[o+3] {
			return false
		}
	}
	return true
}
