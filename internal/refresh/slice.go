package refresh

import (
	"math/bits"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// deltaPass recomputes the part of the wildcard slice — the cells that leave
// the partition dimension wildcard — that a delta can have changed. A cell's
// count, stored measure and closedness are aggregates of its tuple set
// (closedness is an algebraic measure, paper Sec. 3), so a cell no delta row
// matches on its fixed dimensions is what it was before the edit; the old
// store keeps those (cubestore.MergePartitions). For every cell some delta
// row does match, one fold over the cell's tuples in the edited relation is
// exact: the pass emits exactly the matched cells that clear minsup and are
// closed.
//
// It is a BUC-style recursion over the edited relation, starting at the apex
// and fixing dimensions 1..nd-1 in ascending order; the partition dimension
// stays wildcard. It descends only into values some delta row carries
// (appends and tombstones alike — a cell a tombstone left has changed as
// much as one an append entered), only below cells that clear minsup (a
// subset of the tuples cannot), and not below a cell whose tuples all agree
// on a dimension every descendant leaves wildcard (no descendant is closed,
// the pruning of paper Lemma 5). Each visited cell folds, in one pass over
// its tuples, the count, the stored measure — always refolded from the
// tuples, since a min or max cannot undo a delete — and the closed mask over
// every wildcard dimension, the partition dimension included: a cell whose
// tuples all share one partition value is covered by the cell fixing it.
//
// Work: a cell of n tuples costs n visits for the fold and 2n per dimension
// it splits on (count, then scatter), so visits ≤ (2·nd − 1)·Σ n over the
// visited cells — all of them cells the delta falls in, whatever the size of
// the relation outside them.
type deltaPass struct {
	nd     int
	cols   core.Columns
	aux    []float64 // nil unless a measure is stored
	kind   core.MeasureKind
	minSup int64
	delta  []core.Value // the delta's rows, nd values each
	out    sink.Sink

	vals   []core.Value // the cell being visited
	slot   [][]int32    // per dimension: value → 1 + its index in the split's values, 0 when no delta row carries it
	levels []level      // split scratch, one per number of fixed dimensions
	visits int64
}

// level is the scratch of one split: the delta's values on the split
// dimension, with per-value tuple and delta-row counts and the lists both
// are scattered into. A level's lists stay live while the cells below it are
// visited, which use the next level.
type level struct {
	vals       []core.Value
	tcnt, rcnt []int
	tpos, rpos []int
	tids       []core.TID
	rows       []int32
}

// newDeltaPass prepares the pass over the edited relation t for the delta
// rows delta (nd values each). t's cardinalities must cover every delta
// value, which applyDelta guarantees.
func newDeltaPass(t *table.Table, delta []core.Value, ecfg engine.Config) *deltaPass {
	nd := t.NumDims()
	p := &deltaPass{
		nd:     nd,
		cols:   t.Cols,
		kind:   ecfg.Measure,
		minSup: max(ecfg.MinSup, 1),
		delta:  delta,
		vals:   make([]core.Value, nd),
		slot:   make([][]int32, nd),
		levels: make([]level, nd),
	}
	if ecfg.Measure != core.MeasureNone {
		p.aux = t.Aux
	}
	for d := 1; d < nd; d++ {
		p.slot[d] = make([]int32, t.Cards[d])
	}
	return p
}

// run emits the closed cells of t's iceberg cube that leave the partition
// dimension wildcard and that some delta row matches. It is the wildcard job
// of parallel.RunSub, which hands it a goroutine-safe sink.
func (p *deltaPass) run(out sink.Sink) error {
	n := len(p.cols[partitionDim])
	if int64(n) < p.minSup || len(p.delta) == 0 {
		return nil
	}
	tids := make([]core.TID, n)
	for i := range tids {
		tids[i] = core.TID(i)
	}
	rows := make([]int32, len(p.delta)/p.nd)
	for i := range rows {
		rows[i] = int32(i)
	}
	for d := range p.vals {
		p.vals[d] = core.Star
	}
	p.out = out
	p.visit(tids, rows, partitionDim, 0)
	return nil
}

// visit folds the cell p.vals, whose tuples are tids and whose matching delta
// rows are rows (both non-empty), emits it if it is closed, and splits it on
// every dimension after last, the highest one it fixes (partitionDim at the
// apex). depth is the number of dimensions it fixes.
func (p *deltaPass) visit(tids []core.TID, rows []int32, last, depth int) {
	p.visits += int64(len(tids))
	agree := core.AllMask(p.vals) // wildcard dimensions on which every tuple so far agrees
	first := tids[0]
	acc := core.StoredIdentity(p.kind)
	for _, t := range tids {
		for pend := agree; pend != 0; pend &= pend - 1 {
			d := bits.TrailingZeros64(uint64(pend))
			if p.cols[d][t] != p.cols[d][first] {
				agree = agree.Without(d)
			}
		}
		if p.aux != nil {
			acc = core.CombineStored(p.kind, acc, p.aux[t])
		}
	}
	if agree == 0 {
		p.out.Emit(p.vals, int64(len(tids)), acc)
	}
	if agree&core.LowBits(last+1) != 0 {
		return // every descendant leaves that dimension wildcard, its tuples still agreeing
	}
	for d := last + 1; d < p.nd; d++ {
		p.split(tids, rows, d, depth)
	}
}

// split visits the children of a cell on dimension d: the cells fixing d to
// a value some of the cell's delta rows carry, with at least minsup of its
// tuples.
func (p *deltaPass) split(tids []core.TID, rows []int32, d, depth int) {
	lv := &p.levels[depth]
	slot, col := p.slot[d], p.cols[d]
	lv.vals = lv.vals[:0]
	for _, r := range rows {
		if v := p.delta[int(r)*p.nd+d]; slot[v] == 0 {
			lv.vals = append(lv.vals, v)
			slot[v] = int32(len(lv.vals))
		}
	}
	k := len(lv.vals) + 1 // slot 0 collects the tuples no delta row matches
	lv.tcnt, lv.rcnt = zeroed(lv.tcnt, k), zeroed(lv.rcnt, k)
	p.visits += int64(len(tids))
	for _, t := range tids {
		lv.tcnt[slot[col[t]]]++
	}
	frequent := false
	for s := 1; s < k; s++ {
		frequent = frequent || int64(lv.tcnt[s]) >= p.minSup
	}
	if frequent {
		for _, r := range rows {
			lv.rcnt[slot[p.delta[int(r)*p.nd+d]]]++
		}
		lv.tpos, lv.rpos = offsets(lv.tpos, lv.tcnt), offsets(lv.rpos, lv.rcnt)
		lv.tids = resized(lv.tids, lv.tpos[k-1]+lv.tcnt[k-1])
		lv.rows = resized(lv.rows, len(rows))
		p.visits += int64(len(tids))
		for _, t := range tids {
			if s := slot[col[t]]; s > 0 {
				lv.tids[lv.tpos[s]] = t
				lv.tpos[s]++
			}
		}
		for _, r := range rows {
			s := slot[p.delta[int(r)*p.nd+d]]
			lv.rows[lv.rpos[s]] = r
			lv.rpos[s]++
		}
	}
	for _, v := range lv.vals {
		slot[v] = 0
	}
	if !frequent {
		return
	}
	// After the scatter, pos[s] is the end of value s's list.
	for s := 1; s < k; s++ {
		if int64(lv.tcnt[s]) < p.minSup {
			continue
		}
		p.vals[d] = lv.vals[s-1]
		p.visit(lv.tids[lv.tpos[s]-lv.tcnt[s]:lv.tpos[s]], lv.rows[lv.rpos[s]-lv.rcnt[s]:lv.rpos[s]], d, depth+1)
	}
	p.vals[d] = core.Star
}

// zeroed returns buf resized to n zeros.
func zeroed(buf []int, n int) []int {
	buf = resized(buf, n)
	clear(buf)
	return buf
}

// offsets returns, in buf, the start of every slot's list but slot 0's —
// whose tuples are not scattered — in a list of the others laid end to end.
func offsets(buf, counts []int) []int {
	buf = resized(buf, len(counts))
	at := 0
	for s := 1; s < len(counts); s++ {
		buf[s] = at
		at += counts[s]
	}
	return buf
}

// resized returns buf with length n, reallocated only when too small.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
