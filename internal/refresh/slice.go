package refresh

import (
	"cmp"
	"math/bits"
	"slices"

	"ccubing/internal/core"
	"ccubing/internal/cubestore"
	"ccubing/internal/engine"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// deltaPass recomputes the part of the closed cube that a delta can have
// changed. A cell's count, stored measure and closedness are aggregates of its
// tuple set (closedness is an algebraic measure, paper Sec. 3), so a cell no
// delta row matches on its fixed dimensions is what it was before the edit;
// the old store keeps those (cubestore.MergeDelta). For every cell some delta
// row does match, one fold over the cell's tuples in the edited relation is
// exact: the pass emits exactly the matched cells that clear minsup and are
// closed. The partition dimension is one dimension among the others.
//
// It is a BUC-style recursion over the edited relation, starting at the apex
// and fixing dimensions in ascending order. It descends only into values some
// delta row carries (appends and tombstones alike — a cell a tombstone left
// has changed as much as one an append entered), only below cells that clear
// minsup (a subset of the tuples cannot), and not below a cell whose tuples
// all agree on a dimension every descendant leaves wildcard (no descendant is
// closed, the pruning of paper Lemma 5). Each visited cell folds, in one pass
// over its tuples, the count, the stored measure — always refolded from the
// tuples, since a min or max cannot undo a delete — and the closed mask over
// every wildcard dimension. A split visits its values in packed-key order,
// and every cuboid is reached by one path of ascending dimensions, so each
// cuboid's cells are emitted sorted, as the store keeps them.
//
// With the residual asked for, the pass also finds the delta's full tuples
// that fall below minsup. Every tuple sharing a full key shares each of its
// prefixes, and the recursion reaches the prefix cells (dimensions 0..d fixed)
// a delta row matches until one falls below minsup; that cell's tuples — fewer
// than minsup — hold every occurrence of its delta rows' full keys. The pass
// keeps the ones a delta row equals, for residual.
//
// Work: a cell of n tuples costs n visits for the fold and 2n per dimension
// it splits on (count, then scatter), so visits ≤ (2·nd + 1)·Σ n over the
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

	withResidual bool
	sparse       []core.TID // tuples below minsup whose full key a delta row carries; a key's occurrences in ascending order
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
// rows delta (nd values each); withResidual asks for the residual as well.
// t's cardinalities must cover every delta value, which applyDelta
// guarantees.
func newDeltaPass(t *table.Table, delta []core.Value, ecfg engine.Config, withResidual bool) *deltaPass {
	nd := t.NumDims()
	p := &deltaPass{
		nd:           nd,
		cols:         t.Cols,
		kind:         ecfg.Measure,
		minSup:       max(ecfg.MinSup, 1),
		delta:        delta,
		vals:         make([]core.Value, nd),
		slot:         make([][]int32, nd),
		levels:       make([]level, nd),
		withResidual: withResidual,
	}
	if ecfg.Measure != core.MeasureNone {
		p.aux = t.Aux
	}
	for d := range p.slot {
		p.slot[d] = make([]int32, t.Cards[d])
	}
	return p
}

// run emits into out the closed cells of t's iceberg cube that some delta
// row matches.
func (p *deltaPass) run(out sink.Sink) {
	n := len(p.cols[0])
	if n == 0 || len(p.delta) == 0 {
		return
	}
	tids := make([]core.TID, n)
	for i := range tids {
		tids[i] = core.TID(i)
	}
	rows := make([]int32, len(p.delta)/p.nd)
	for i := range rows {
		rows[i] = int32(i)
	}
	if int64(n) < p.minSup {
		p.keepSparse(tids, rows, 0)
		return
	}
	for d := range p.vals {
		p.vals[d] = core.Star
	}
	p.out = out
	p.visit(tids, rows, -1, 0)
}

// residual returns the fresh residual rows: the distinct full tuples some
// delta row carries whose multiplicity in t is in [1, minsup), with their
// counts and stored measures. It is nil unless the pass was asked for it.
func (p *deltaPass) residual() *cubestore.Residual {
	if !p.withResidual {
		return nil
	}
	cols := make(core.Columns, p.nd)
	for d := range cols {
		cols[d] = make([]core.Value, len(p.sparse))
		for i, t := range p.sparse {
			cols[d][i] = p.cols[d][t]
		}
	}
	var aux []float64
	if p.aux != nil {
		aux = make([]float64, len(p.sparse))
		for i, t := range p.sparse {
			aux[i] = p.aux[t]
		}
	}
	// Every occurrence of a key is in p.sparse, in ascending tuple order: the
	// fold is the one over the whole relation.
	return cubestore.ComputeResidual(cols, aux, p.minSup, p.kind)
}

// visit folds the cell p.vals, whose tuples are tids and whose matching delta
// rows are rows (both non-empty), emits it if it is closed, and splits it on
// every dimension after last, the highest one it fixes (-1 at the apex).
// depth is the number of dimensions it fixes.
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
// tuples. When the cell fixes exactly the dimensions before d, its children
// are prefix cells, and those below minsup go to keepSparse.
func (p *deltaPass) split(tids []core.TID, rows []int32, d, depth int) {
	lv := &p.levels[depth]
	slot, col := p.slot[d], p.cols[d]
	lv.vals = lv.vals[:0]
	for _, r := range rows {
		if v := p.delta[int(r)*p.nd+d]; slot[v] == 0 {
			lv.vals = append(lv.vals, v)
			slot[v] = 1
		}
	}
	slices.SortFunc(lv.vals, func(a, b core.Value) int { return cmp.Compare(core.KeyOrder(a), core.KeyOrder(b)) })
	for i, v := range lv.vals {
		slot[v] = int32(i + 1)
	}
	k := len(lv.vals) + 1 // slot 0 collects the tuples no delta row matches
	lv.tcnt, lv.rcnt = zeroed(lv.tcnt, k), zeroed(lv.rcnt, k)
	p.visits += int64(len(tids))
	for _, t := range tids {
		lv.tcnt[slot[col[t]]]++
	}
	prefix := p.withResidual && depth == d
	scatter := false
	for s := 1; s < k; s++ {
		n := int64(lv.tcnt[s])
		scatter = scatter || n >= p.minSup || prefix && n > 0
	}
	if scatter {
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
	if !scatter {
		return
	}
	// After the scatter, pos[s] is the end of value s's list.
	for s := 1; s < k; s++ {
		n := int64(lv.tcnt[s])
		if n == 0 || n < p.minSup && !prefix {
			continue
		}
		tids, rows := lv.tids[lv.tpos[s]-lv.tcnt[s]:lv.tpos[s]], lv.rows[lv.rpos[s]-lv.rcnt[s]:lv.rpos[s]]
		if n < p.minSup {
			p.keepSparse(tids, rows, d+1)
			continue
		}
		p.vals[d] = lv.vals[s-1]
		p.visit(tids, rows, d, depth+1)
	}
	p.vals[d] = core.Star
}

// keepSparse keeps, of a prefix cell's tuples tids (fewer than minsup, agreeing
// on every dimension before from), those that some of its delta rows rows
// equals.
func (p *deltaPass) keepSparse(tids []core.TID, rows []int32, from int) {
	for _, t := range tids {
		for _, r := range rows {
			row := p.delta[int(r)*p.nd : int(r+1)*p.nd]
			d := from
			for d < p.nd && p.cols[d][t] == row[d] {
				d++
			}
			if d == p.nd {
				p.sparse = append(p.sparse, t)
				break
			}
		}
	}
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
