package cubestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
	"ccubing/internal/table"
)

// randomPred draws one predicate over a dimension of cardinality card.
func randomPred(rng *rand.Rand, card int) Pred {
	switch rng.Intn(4) {
	case 0:
		return Pred{Kind: PredAny}
	case 1:
		return Pred{Kind: PredEq, Val: core.Value(rng.Intn(card))}
	case 2:
		lo := core.Value(rng.Intn(card))
		hi := lo + core.Value(rng.Intn(card))
		return Pred{Kind: PredRange, Lo: lo, Hi: hi}
	default:
		n := 1 + rng.Intn(3)
		set := make([]core.Value, n)
		for i := range set {
			set[i] = core.Value(rng.Intn(card))
		}
		return Pred{Kind: PredIn, Set: set}
	}
}

func randomSpec(rng *rand.Rand, cards []int) Spec {
	preds := make([]Pred, len(cards))
	for d, c := range cards {
		preds[d] = randomPred(rng, c)
	}
	return Spec{Preds: preds}
}

// TestSelectMatchesWalkFilter checks Select against filtering a full Walk
// with the same predicates.
func TestSelectMatchesWalkFilter(t *testing.T) {
	cards := []int{6, 5, 4, 3}
	tbl := testTable(t, 600, cards, 0.9, 21)
	s := buildFromClosed(t, tbl, 1)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		spec := randomSpec(rng, cards)
		want := map[string]int64{}
		s.Walk(func(c core.Cell) bool {
			for d, p := range spec.Preds {
				if !p.Bound() {
					continue
				}
				if c.Values[d] == core.Star || !p.Match(c.Values[d]) {
					return true
				}
			}
			want[c.Key()] = c.Count
			return true
		})
		got := map[string]int64{}
		s.Select(spec, func(c core.Cell) bool {
			got[c.Key()] = c.Count
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("spec %d: %d cells, want %d", i, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("spec %d: count mismatch for %q", i, k)
			}
		}
	}
}

// bruteAggregate computes the group-by answer directly from the relation:
// count of matching tuples per distinct GroupBy value combination.
func bruteAggregate(tbl *tableLike, spec Spec, groupBy []int) map[string]int64 {
	out := map[string]int64{}
	for tid := 0; tid < tbl.n; tid++ {
		ok := true
		for d, p := range spec.Preds {
			if !p.Match(tbl.cols[d][tid]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		key := make([]byte, 0, len(groupBy)*core.ValueWidth)
		for _, d := range groupBy {
			key = core.AppendValue(key, tbl.cols[d][tid])
		}
		out[string(key)]++
	}
	return out
}

// tableLike avoids importing internal/table twice in helpers.
type tableLike struct {
	cols [][]core.Value
	n    int
}

// TestAggregateAgainstBruteForce fuzzes Aggregate (range/set/exact predicates
// with varying group-by dimension sets) against direct tuple counting. At
// min_sup 1 the closed cube is lossless, so every group and count must match
// exactly.
func TestAggregateAgainstBruteForce(t *testing.T) {
	cards := []int{6, 5, 4, 3}
	tbl := testTable(t, 500, cards, 1.0, 13)
	s := buildFromClosed(t, tbl, 1)
	like := &tableLike{cols: tbl.Cols, n: tbl.NumTuples()}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		spec := randomSpec(rng, cards)
		var groupBy []int
		for d := range cards {
			if rng.Intn(2) == 0 {
				groupBy = append(groupBy, d)
			}
		}
		want := bruteAggregate(like, spec, groupBy)
		rows := s.Aggregate(spec, AggOptions{GroupBy: groupBy})
		if len(rows) != len(want) {
			t.Fatalf("spec %d groupBy %v: %d rows, want %d", i, groupBy, len(rows), len(want))
		}
		for _, r := range rows {
			key := make([]byte, 0, len(groupBy)*core.ValueWidth)
			for _, d := range groupBy {
				if r.Values[d] == core.Star {
					t.Fatalf("spec %d: row %v leaves group-by dimension %d unbound", i, r.Values, d)
				}
				key = core.AppendValue(key, r.Values[d])
			}
			// Non-group dimensions must be wildcards.
			gm := core.Mask(0)
			for _, d := range groupBy {
				gm = gm.With(d)
			}
			for d, v := range r.Values {
				if !gm.Has(d) && v != core.Star {
					t.Fatalf("spec %d: row %v binds non-group dimension %d", i, r.Values, d)
				}
			}
			if want[string(key)] != r.Count {
				t.Fatalf("spec %d groupBy %v: group %v = %d, want %d", i, groupBy, r.Values, r.Count, want[string(key)])
			}
		}
	}
}

// scanStore builds the closed iceberg cube of tbl at minsup as a store with
// stored aggregates of kind and the matching residual, every value on
// dimension d relabelled through remap — closedness and counts do not depend
// on the labels, so one engine run serves any value range. It returns the
// store with the relabelled relation and its measure column.
func scanStore(t *testing.T, tbl *table.Table, minsup int64, kind core.MeasureKind, remap func(d int, v core.Value) core.Value) (*Store, *tableLike, []float64) {
	t.Helper()
	nd, n := tbl.NumDims(), tbl.NumTuples()
	aux := auxColumn(tbl)
	rel := &tableLike{cols: make([][]core.Value, nd), n: n}
	for d := range rel.cols {
		rel.cols[d] = make([]core.Value, n)
		for tid, v := range tbl.Cols[d] {
			rel.cols[d][tid] = remap(d, v)
		}
	}
	// Every cell's stored aggregate, by one pass over tuples x cuboids.
	cellAux := map[string]float64{}
	vals := make([]core.Value, nd)
	for tid := 0; tid < n; tid++ {
		for mask := 0; mask < 1<<nd; mask++ {
			for d := range vals {
				vals[d] = core.Star
				if mask>>d&1 == 1 {
					vals[d] = tbl.Cols[d][tid]
				}
			}
			k := core.CellKey(vals)
			a, ok := cellAux[k]
			if !ok {
				a = core.StoredIdentity(kind)
			}
			cellAux[k] = core.CombineStored(kind, a, aux[tid])
		}
	}
	col := &sink.Collector{}
	if err := qcdfs.Engine.Run(tbl, engine.Config{MinSup: minsup, Closed: true}, col); err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(nd, true)
	for _, c := range col.Cells {
		for d, v := range c.Values {
			vals[d] = v
			if v != core.Star {
				vals[d] = remap(d, v)
			}
		}
		b.Add(vals, c.Count, cellAux[core.CellKey(c.Values)])
	}
	if err := b.SetResidual(ComputeResidual(rel.cols, aux, minsup, kind)); err != nil {
		t.Fatal(err)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s, rel, aux
}

// shippedCopy sends a store through every layout-sensitive path of the
// residual — a MergeDelta whose delta is the full tuples of a third of the
// dimension-0 values (its residual rows and fully fixed cells), replacing
// every cell and residual row they match with the store's own (spliced runs
// on both sides), a snapshot save and load — and returns the reassembled
// store, whose snapshot must equal the original's byte for byte.
func shippedCopy(t *testing.T, s *Store) *Store {
	t.Helper()
	chosen := func(v core.Value) bool { return uint32(v)%3 == 1 }
	var delta []core.Value
	for i := 0; i < s.res.NumRows(); i++ {
		if chosen(s.res.cols[0][i]) {
			for _, col := range s.res.cols {
				delta = append(delta, col[i])
			}
		}
	}
	s.Walk(func(c core.Cell) bool {
		if core.AllMask(c.Values) == 0 && chosen(c.Values[0]) {
			delta = append(delta, c.Values...)
		}
		return true
	})
	fresh := NewBuilder(s.NumDims(), s.HasAux())
	s.Walk(func(c core.Cell) bool {
		if matchedBy(delta, c.Values) {
			fresh.Add(c.Values, c.Count, c.Aux)
		}
		return true
	})
	freshRes := s.res.subset(func(i int) bool { return chosen(s.res.cols[0][i]) })
	merged, err := s.MergeDelta(delta, fresh, freshRes)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := s.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := merged.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("replacing partitions with themselves changed the snapshot bytes")
	}
	loaded, err := openCopy(got.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestAggregateMatchesRelationScan is the property test of the aggregate
// engine: over predicate kind x bound dimensions x group-by overlap x
// iceberg threshold x measure combiner, Aggregate must equal a scan of the
// relation — groups, counts, measures, rank order and the TopK prefix. It
// runs on a store whose keys fit one word and on one whose value bounds
// overflow 64 bits (three dimensions with values >= 2^22), each also after a
// MergeDelta / snapshot round trip of the columnar residual.
func TestAggregateMatchesRelationScan(t *testing.T) {
	cards := []int{9, 7, 6, 5, 4}
	tbl := testTable(t, 1200, cards, 1.0, 77)
	nd := len(cards)
	remaps := map[string]func(d int, v core.Value) core.Value{
		"narrow": func(_ int, v core.Value) core.Value { return v },
		"wide": func(d int, v core.Value) core.Value {
			if d < 3 {
				return v*3 + 1<<22
			}
			return v
		},
	}
	kinds := []struct {
		kind core.MeasureKind
		agg  AuxAgg
	}{{core.MeasureSum, AuxSum}, {core.MeasureMin, AuxMin}, {core.MeasureMax, AuxMax}}
	predKinds := []string{"eq", "range", "in", "empty set", "lo>hi"}
	boundSets := [][]int{{0}, {2}, {nd - 1}, {1, 3}, {}}
	for name, remap := range remaps {
		for _, minsup := range []int64{1, 4, 64} {
			for _, k := range kinds {
				s, rel, aux := scanStore(t, tbl, minsup, k.kind, remap)
				stores := []*Store{s, shippedCopy(t, s)}
				rng := rand.New(rand.NewSource(minsup*31 + int64(k.kind)))
				for _, pk := range predKinds {
					for _, bound := range boundSets {
						for _, overlap := range []bool{false, true} {
							spec := Spec{Preds: make([]Pred, nd)}
							for _, d := range bound {
								spec.Preds[d] = drawPred(rng, pk, d, cards[d], remap)
							}
							groupBy := drawGroupBy(rng, nd, bound, overlap)
							opt := AggOptions{GroupBy: groupBy, AuxAgg: k.agg}
							if rng.Intn(2) == 0 {
								opt.By = ByAux
							}
							want := scanAggregate(rel, aux, spec, groupBy, k.agg)
							for i, st := range stores {
								label := fmt.Sprintf("%s minsup=%d %v store %d: %s on %v group-by %v", name, minsup, k.kind, i, pk, bound, groupBy)
								got := st.Aggregate(spec, opt)
								checkAggregate(t, label, got, want, opt)
								if len(got) > 1 {
									opt.TopK = 1 + rng.Intn(len(got)-1)
									top := st.Aggregate(spec, opt)
									if fmt.Sprint(top) != fmt.Sprint(got[:opt.TopK]) {
										t.Fatalf("%s: TopK %d = %v, want the prefix %v", label, opt.TopK, top, got[:opt.TopK])
									}
									opt.TopK = 0
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestAggregateResolvesLikeLookup pins the closure resolution fused into the
// enumeration to Lookup's: on stores of arbitrary (not closed-cube
// consistent) cells, where covering cells tie on count but differ in
// measure, every row of an unfiltered group-by must carry exactly the count
// and measure Lookup resolves its cell to — own-cuboid hit first, then
// maximum count, ties to the most specific cell.
func TestAggregateResolvesLikeLookup(t *testing.T) {
	const nd, card = 4, 3
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 40; round++ {
		b := NewBuilder(nd, true)
		seen := map[string]bool{}
		for i := 0; i < 50; i++ {
			vals := make([]core.Value, nd)
			for d := range vals {
				vals[d] = core.Star
				if rng.Intn(2) == 0 {
					vals[d] = core.Value(rng.Intn(card))
				}
			}
			if k := core.CellKey(vals); !seen[k] {
				seen[k] = true
				b.Add(vals, int64(1+rng.Intn(3)), float64(rng.Intn(100)))
			}
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		spec := Spec{Preds: make([]Pred, nd)}
		for gm := 1; gm < 1<<nd; gm++ {
			rows := s.Aggregate(spec, AggOptions{GroupBy: core.Mask(gm).Dims(nil)})
			for _, r := range rows {
				c, ok := s.Lookup(r.Values)
				if !ok || c.Count != r.Count || c.Aux != r.Aux {
					t.Fatalf("round %d group-by %v: row %v = (%d, %v), Lookup resolves it to (%d, %v, %v)",
						round, core.Mask(gm).Dims(nil), r.Values, r.Count, r.Aux, c.Count, c.Aux, ok)
				}
			}
		}
	}
}

// TestConcurrentAggregates runs aggregates of mixed key widths from many
// goroutines against one store: the pooled per-call scratch must never be
// shared, so every concurrent answer equals the sequential one. Meaningful
// under -race.
func TestConcurrentAggregates(t *testing.T) {
	cards := []int{9, 7, 6, 5}
	tbl := testTable(t, 800, cards, 1.0, 19)
	s, _, _ := scanStore(t, tbl, 3, core.MeasureSum, func(d int, v core.Value) core.Value { return v + 1<<22 })
	rng := rand.New(rand.NewSource(23))
	type query struct {
		spec Spec
		opt  AggOptions
		want string
	}
	queries := make([]query, 60)
	for i := range queries {
		q := query{spec: Spec{Preds: make([]Pred, len(cards))}}
		d := rng.Intn(len(cards))
		q.spec.Preds[d] = drawPred(rng, "range", d, cards[d], func(_ int, v core.Value) core.Value { return v + 1<<22 })
		q.opt.GroupBy = drawGroupBy(rng, len(cards), []int{d}, false) // 2-3 key fields: one word or two
		q.want = fmt.Sprint(s.Aggregate(q.spec, q.opt))
		queries[i] = q
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queries {
				q := queries[(i+w*7)%len(queries)]
				if got := fmt.Sprint(s.Aggregate(q.spec, q.opt)); got != q.want {
					t.Errorf("concurrent aggregate %v group-by %v = %s, sequentially %s", q.spec.Preds, q.opt.GroupBy, got, q.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAggregateKeyWidths pins the three key widths to the stores that need
// them — value bounds of one byte per dimension, of three bytes on three
// dimensions (72 bits), and of four bytes on ten (320 bits) — and checks
// each against the relation scan when grouping by every dimension.
func TestAggregateKeyWidths(t *testing.T) {
	for _, tc := range []struct {
		cards []int
		shift core.Value // added to every value
		words int
	}{
		{cards: []int{9, 7, 6}, shift: 0, words: 1},
		{cards: []int{9, 7, 6}, shift: 1 << 22, words: 2},
		{cards: []int{3, 2, 2, 2, 2, 2, 2, 2, 2, 2}, shift: 1 << 24, words: 5},
	} {
		tbl := testTable(t, 400, tc.cards, 0.8, 5)
		remap := func(_ int, v core.Value) core.Value { return v + tc.shift }
		s, rel, aux := scanStore(t, tbl, 2, core.MeasureSum, remap)
		spec := Spec{Preds: make([]Pred, len(tc.cards))}
		spec.Preds[1] = Pred{Kind: PredRange, Lo: tc.shift, Hi: tc.shift + 1}
		opt := AggOptions{}
		for d := range tc.cards {
			opt.GroupBy = append(opt.GroupBy, d)
		}
		a := aggCall{gc: core.LowBits(len(tc.cards))}
		a.plan(s.maxVal)
		if a.words != tc.words {
			t.Fatalf("cards %v shift %d: key plan takes %d words, want %d", tc.cards, tc.shift, a.words, tc.words)
		}
		label := fmt.Sprintf("cards %v shift %d", tc.cards, tc.shift)
		checkAggregate(t, label, s.Aggregate(spec, opt), scanAggregate(rel, aux, spec, opt.GroupBy, AuxSum), opt)
	}
}

// drawPred draws one predicate of the named kind over dimension d, in the
// relabelled value space.
func drawPred(rng *rand.Rand, kind string, d, card int, remap func(int, core.Value) core.Value) Pred {
	v := func() core.Value { return remap(d, core.Value(rng.Intn(card))) }
	switch kind {
	case "eq":
		return Pred{Kind: PredEq, Val: v()}
	case "range":
		lo := core.Value(rng.Intn(card))
		return Pred{Kind: PredRange, Lo: remap(d, lo), Hi: remap(d, lo+core.Value(rng.Intn(card)))}
	case "in":
		return Pred{Kind: PredIn, Set: []core.Value{v(), v(), v() + 1, v()}}
	case "empty set":
		return Pred{Kind: PredIn}
	default:
		return Pred{Kind: PredRange, Lo: remap(d, 3), Hi: remap(d, 1)}
	}
}

// drawGroupBy draws one or two group-by dimensions that avoid the bound
// dimensions, or include one of them when overlap is set (and any is bound).
func drawGroupBy(rng *rand.Rand, nd int, bound []int, overlap bool) []int {
	var free []int
	for d := 0; d < nd; d++ {
		if !slices.Contains(bound, d) {
			free = append(free, d)
		}
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	groupBy := free[:1+rng.Intn(2)]
	if overlap && len(bound) > 0 {
		groupBy = append(groupBy[:1:1], bound[rng.Intn(len(bound))])
	}
	return groupBy
}

// scanGroup is one group of a relation scan.
type scanGroup struct {
	count int64
	aux   float64
}

// scanAggregate answers an aggregate from the relation itself, groups keyed
// by their packed values on the group-by dimensions, ascending.
func scanAggregate(rel *tableLike, aux []float64, spec Spec, groupBy []int, agg AuxAgg) map[string]scanGroup {
	groupBy = slices.Clone(groupBy)
	slices.Sort(groupBy)
	out := map[string]scanGroup{}
tuples:
	for tid := 0; tid < rel.n; tid++ {
		for d, p := range spec.Preds {
			if !p.Match(rel.cols[d][tid]) {
				continue tuples
			}
		}
		var key []byte
		for _, d := range groupBy {
			key = core.AppendValue(key, rel.cols[d][tid])
		}
		g, seen := out[string(key)]
		g.count++
		switch {
		case !seen:
			g.aux = aux[tid]
		case agg == AuxMin:
			g.aux = min(g.aux, aux[tid])
		case agg == AuxMax:
			g.aux = max(g.aux, aux[tid])
		default:
			g.aux += aux[tid]
		}
		out[string(key)] = g
	}
	return out
}

// checkAggregate compares an Aggregate result with the relation scan: the
// same groups with the same count and measure, wildcards off the group-by,
// ranked best first with packed-key ties ascending.
func checkAggregate(t *testing.T, label string, got []core.Cell, want map[string]scanGroup, opt AggOptions) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, the relation has %d groups", label, len(got), len(want))
	}
	dims := slices.Clone(opt.GroupBy)
	slices.Sort(dims)
	rank := func(c core.Cell) float64 {
		if opt.By == ByAux {
			return c.Aux
		}
		return float64(c.Count)
	}
	var prevKey []byte
	for i, r := range got {
		key := core.AppendValues(nil, r.Values, dims)
		for d, v := range r.Values {
			if (v == core.Star) == slices.Contains(dims, d) {
				t.Fatalf("%s: row %v fixes the wrong dimensions", label, r.Values)
			}
		}
		if g := want[string(key)]; g.count != r.Count || g.aux != r.Aux {
			t.Fatalf("%s: group %v = (%d, %v), the relation says (%d, %v)", label, r.Values, r.Count, r.Aux, g.count, g.aux)
		}
		if i > 0 {
			if rank(got[i-1]) < rank(r) || rank(got[i-1]) == rank(r) && bytes.Compare(prevKey, key) >= 0 {
				t.Fatalf("%s: rows %d and %d out of order: %v then %v", label, i-1, i, got[i-1], r)
			}
		}
		prevKey = key
	}
}

// TestAggregateTopK checks ranking, determinism and truncation.
func TestAggregateTopK(t *testing.T) {
	cards := []int{7, 5, 4}
	tbl := testTable(t, 400, cards, 1.3, 5)
	s := buildFromClosed(t, tbl, 1)
	spec := Spec{Preds: []Pred{{Kind: PredAny}, {Kind: PredAny}, {Kind: PredAny}}}
	all := s.Aggregate(spec, AggOptions{GroupBy: []int{0}})
	for i := 1; i < len(all); i++ {
		if all[i].Count > all[i-1].Count {
			t.Fatalf("rows not count-descending at %d: %v", i, all)
		}
		if all[i].Count == all[i-1].Count && all[i].Values[0] < all[i-1].Values[0] {
			t.Fatalf("equal-count tie not key-ascending at %d", i)
		}
	}
	for k := 1; k <= len(all); k++ {
		topk := s.Aggregate(spec, AggOptions{GroupBy: []int{0}, TopK: k})
		if len(topk) != k {
			t.Fatalf("TopK(%d) returned %d rows", k, len(topk))
		}
		for i := range topk {
			if fmt.Sprint(topk[i]) != fmt.Sprint(all[i]) {
				t.Fatalf("TopK(%d) row %d = %v, want %v", k, i, topk[i], all[i])
			}
		}
	}
	// Grand total: no group-by, no predicates = apex count.
	total := s.Aggregate(spec, AggOptions{})
	if len(total) != 1 || total[0].Count != int64(tbl.NumTuples()) {
		t.Fatalf("grand total = %v, want single row of %d", total, tbl.NumTuples())
	}
}

// TestLatticeProbeBound pins the acceptance criterion for the cuboid-lattice
// index: on a cube with ≥10 dimensions, a 1-bound-dimension covering probe
// visits only the groups fixing that dimension — strictly fewer than
// NumCuboids(), which the pre-index implementation scanned.
func TestLatticeProbeBound(t *testing.T) {
	cards := make([]int, 10)
	for d := range cards {
		cards[d] = 3
	}
	tbl := testTable(t, 2000, cards, 0, 7)
	s := buildFromClosed(t, tbl, 4)
	if s.NumDims() < 10 {
		t.Fatalf("want >= 10 dims, got %d", s.NumDims())
	}
	// The query binds dimension 0 to an out-of-domain value: it misses, so
	// the covering scan inspects every candidate group — the worst case.
	q := make([]core.Value, s.NumDims())
	for d := range q {
		q[d] = core.Star
	}
	q[0] = core.Value(cards[0]) // out of domain: a guaranteed miss
	before := s.Probes()
	if _, ok := s.Lookup(q); ok {
		t.Fatal("out-of-domain value must miss")
	}
	probed := s.Probes() - before
	if probed <= 0 {
		t.Fatal("covering scan did not probe any group")
	}
	if probed >= int64(s.NumCuboids()) {
		t.Fatalf("probed %d groups, want strictly fewer than NumCuboids=%d", probed, s.NumCuboids())
	}
	// The bound is exactly the lattice list for dimension 0 (minus the
	// query's own cuboid, which the fast path owns).
	withD0, withD1, withBoth := 0, 0, 0
	for _, g := range s.groups {
		if g.mask.Has(0) {
			withD0++
		}
		if g.mask.Has(1) {
			withD1++
		}
		if g.mask.Has(0) && g.mask.Has(1) {
			withBoth++
		}
	}
	if probed > int64(withD0) {
		t.Fatalf("probed %d groups, lattice bound is %d", probed, withD0)
	}

	// Two bound dimensions: the candidate list is the intersection of the two
	// shortest per-dimension lists, strictly tighter than either list alone.
	if withBoth >= withD0 || withBoth >= withD1 {
		t.Fatalf("dataset does not discriminate: |d0∧d1|=%d, |d0|=%d, |d1|=%d", withBoth, withD0, withD1)
	}
	q[1] = 0 // in-domain; d0 stays out of domain, so the probe still misses
	before = s.Probes()
	if _, ok := s.Lookup(q); ok {
		t.Fatal("out-of-domain value must miss")
	}
	probed = s.Probes() - before
	if probed <= 0 {
		t.Fatal("two-dimension covering scan did not probe any group")
	}
	if probed > int64(withBoth) {
		t.Fatalf("probed %d groups, intersection bound is %d", probed, withBoth)
	}
}

// TestLatticeEmptyDimensionList pins the tightest candidate bound: a query
// binding a dimension no stored cell fixes has zero covering groups, so the
// covering scan must probe nothing.
func TestLatticeEmptyDimensionList(t *testing.T) {
	b := NewBuilder(3, false)
	b.Add([]core.Value{core.Star, core.Star, core.Star}, 4, 0)
	b.Add([]core.Value{1, core.Star, core.Star}, 2, 0)
	b.Add([]core.Value{1, 2, core.Star}, 2, 0) // dimension 2 never fixed
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := s.Probes()
	if _, ok := s.Lookup([]core.Value{core.Star, core.Star, 5}); ok {
		t.Fatal("query binding an unfixed dimension must miss")
	}
	if probed := s.Probes() - before; probed != 0 {
		t.Fatalf("probed %d groups, want 0 (byDim list for dimension 2 is empty)", probed)
	}
}

// TestLookupTieBreakMostSpecific pins the deterministic tie-break: when two
// covering cells carry the query's count, they aggregate the same tuples, so
// the most specific one is the true closure and must win regardless of scan
// order. The pair is built directly (the less specific cell is not closed —
// the scenario a consistent closed cube avoids but Builder accepts).
func TestLookupTieBreakMostSpecific(t *testing.T) {
	b := NewBuilder(3, false)
	// (1,2,*) and (1,2,3): equal counts, so every tuple under (1,2,*) has
	// value 3 on the last dimension — the closure of (1,*,*) is (1,2,3).
	b.Add([]core.Value{1, 2, core.Star}, 5, 0)
	b.Add([]core.Value{1, 2, 3}, 5, 0)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, ok := s.Lookup([]core.Value{1, core.Star, core.Star})
	if !ok || c.Count != 5 {
		t.Fatalf("lookup = (%v,%v), want count 5", c, ok)
	}
	want := []core.Value{1, 2, 3}
	for d, v := range want {
		if c.Values[d] != v {
			t.Fatalf("closure = %v, want %v (most specific covering cell)", c.Values, want)
		}
	}
	// With a strictly larger count on the less specific cell, count still
	// dominates specificity.
	b2 := NewBuilder(3, false)
	b2.Add([]core.Value{1, 2, core.Star}, 7, 0)
	b2.Add([]core.Value{1, 2, 3}, 5, 0)
	s2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	c2, ok := s2.Lookup([]core.Value{1, core.Star, core.Star})
	if !ok || c2.Count != 7 || c2.Values[2] != core.Star {
		t.Fatalf("lookup = (%v,%v), want the count-7 cell (1,2,*)", c2, ok)
	}
}

// TestLookupTieBreakOrderIndependent rebuilds the tie store with the
// insertion order reversed: the resolved closure must be identical.
func TestLookupTieBreakOrderIndependent(t *testing.T) {
	build := func(rev bool) *Store {
		cells := [][]core.Value{{1, 2, core.Star}, {1, 2, 3}}
		if rev {
			cells[0], cells[1] = cells[1], cells[0]
		}
		b := NewBuilder(3, false)
		for _, v := range cells {
			b.Add(v, 5, 0)
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	q := []core.Value{1, core.Star, core.Star}
	c1, _ := build(false).Lookup(q)
	c2, _ := build(true).Lookup(q)
	if fmt.Sprint(c1.Values) != fmt.Sprint(c2.Values) {
		t.Fatalf("tie-break depends on build order: %v vs %v", c1.Values, c2.Values)
	}
}

// BenchmarkLookupLattice measures covering-probe cost on a sparse
// 12-dimensional cube with a single bound dimension — the regime where the
// pre-index Lookup scanned every cuboid group. probes/op is reported so the
// bench series records the candidate bound directly.
func BenchmarkLookupLattice(b *testing.B) {
	cards := make([]int, 12)
	for d := range cards {
		cards[d] = 4
	}
	tbl := testTable(b, 4000, cards, 0.5, 3)
	s := buildFromClosed(b, tbl, 8)
	q := make([]core.Value, s.NumDims())
	for d := range q {
		q[d] = core.Star
	}
	q[0] = core.Value(cards[0]) // miss: full candidate scan each op
	start := s.Probes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(q)
	}
	b.StopTimer()
	perOp := float64(s.Probes()-start) / float64(b.N)
	b.ReportMetric(perOp, "probes/op")
	b.ReportMetric(float64(s.NumCuboids()), "cuboids/op")
	// The acceptance bound, asserted where it is measured: the lattice index
	// must probe strictly fewer groups than a full cuboid scan would.
	if perOp >= float64(s.NumCuboids()) {
		b.Fatalf("probed %.0f groups/op, want strictly fewer than NumCuboids=%d", perOp, s.NumCuboids())
	}
}

// BenchmarkAggregateGroupBy measures a predicate group-by over the store.
func BenchmarkAggregateGroupBy(b *testing.B) {
	cards := []int{50, 20, 10, 8, 6}
	tbl := testTable(b, 20000, cards, 1.0, 17)
	s := buildFromClosed(b, tbl, 4)
	spec := Spec{Preds: []Pred{
		{Kind: PredRange, Lo: 0, Hi: 24},
		{Kind: PredAny},
		{Kind: PredIn, Set: []core.Value{1, 3, 5}},
		{Kind: PredAny},
		{Kind: PredAny},
	}}
	opt := AggOptions{GroupBy: []int{1}, TopK: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Aggregate(spec, opt)
	}
}
