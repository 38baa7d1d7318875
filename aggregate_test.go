package ccubing

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestCubeClosureIdempotence is the closure-idempotence property test: for
// random cubes and random queries, re-querying the exact cell Lookup returns
// must return that same cell with the same count and measure. (Closure is a
// fixpoint: closure(closure(q)) == closure(q).)
func TestCubeClosureIdempotence(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		cards := []int{5 + int(seed), 6, 4, 3 + int(seed%2)}
		ds, err := Synthetic(SyntheticConfig{T: 400 + 100*int(seed), Cards: cards, Skew: 0.8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		aux := make([]float64, ds.NumTuples())
		for i := range aux {
			aux[i] = float64((i*7)%19) - 3
		}
		if err := ds.SetMeasure(aux); err != nil {
			t.Fatal(err)
		}
		minsup := int64(1 + seed%3)
		cube, err := Materialize(ds, Options{MinSup: minsup, Measure: MeasureSum})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 101))
		for _, q := range cubeFuzzQueries(rng, ds, 800) {
			c, ok := cube.Lookup(q)
			if !ok {
				continue
			}
			again, ok2 := cube.Lookup(c.Values)
			if !ok2 {
				t.Fatalf("seed %d: closure %v of %v misses on re-query", seed, c.Values, q)
			}
			if fmt.Sprint(again.Values) != fmt.Sprint(c.Values) || again.Count != c.Count || again.Aux != c.Aux {
				t.Fatalf("seed %d: closure not idempotent: %v (%d,%g) re-queried as %v (%d,%g)",
					seed, c.Values, c.Count, c.Aux, again.Values, again.Count, again.Aux)
			}
		}
	}
}

// matchPred reports whether a coded value satisfies a facade predicate.
func matchPred(p Predicate, v int32) bool {
	switch p.Op {
	case PredAny:
		return true
	case PredEq:
		return v == p.Value
	case PredRange:
		return v >= p.Lo && v <= p.Hi
	default:
		for _, sv := range p.Set {
			if v == sv {
				return true
			}
		}
		return false
	}
}

// randomFacadeSpec draws a random predicate vector over the dataset's domain.
func randomFacadeSpec(rng *rand.Rand, cards []int) QuerySpec {
	spec := make(QuerySpec, len(cards))
	for d, card := range cards {
		switch rng.Intn(4) {
		case 0:
			spec[d] = Predicate{Op: PredAny}
		case 1:
			spec[d] = Predicate{Op: PredEq, Value: int32(rng.Intn(card))}
		case 2:
			lo := int32(rng.Intn(card))
			spec[d] = Predicate{Op: PredRange, Lo: lo, Hi: lo + int32(rng.Intn(card))}
		default:
			set := make([]int32, 1+rng.Intn(3))
			for i := range set {
				set[i] = int32(rng.Intn(card))
			}
			spec[d] = Predicate{Op: PredIn, Set: set}
		}
	}
	return spec
}

// TestCubeSelectEquivalence checks Select against filtering the closed cube
// computed by ComputeCollect, at several iceberg thresholds (Select filters
// stored cells, so it is exact for iceberg cubes too).
func TestCubeSelectEquivalence(t *testing.T) {
	cards := []int{6, 5, 4, 3}
	ds, err := Synthetic(SyntheticConfig{T: 600, Cards: cards, Skew: 1.1, Seed: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, minsup := range []int64{1, 3} {
		cube, err := Materialize(ds, Options{MinSup: minsup})
		if err != nil {
			t.Fatal(err)
		}
		closed, _, err := ComputeCollect(ds, Options{MinSup: minsup, Closed: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(minsup))
		for i := 0; i < 100; i++ {
			spec := randomFacadeSpec(rng, cards)
			want := map[string]int64{}
			for _, c := range closed {
				ok := true
				for d, p := range spec {
					if p.Op == PredAny {
						continue
					}
					if c.Values[d] == Star || !matchPred(p, c.Values[d]) {
						ok = false
						break
					}
				}
				if ok {
					want[fmt.Sprint(c.Values)] = c.Count
				}
			}
			got := map[string]int64{}
			if err := cube.Select(spec, func(c Cell) bool {
				got[fmt.Sprint(c.Values)] = c.Count
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("minsup=%d spec %d: %d cells, want %d", minsup, i, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("minsup=%d spec %d: mismatch at %s", minsup, i, k)
				}
			}
		}
	}
}

// TestCubeAggregateEquivalence fuzzes Aggregate — predicates, group-by and
// measure combination — against direct recomputation from the base relation
// at min_sup 1, where the closed cube is lossless and the aggregate must be
// exact. Sum, min and max measures are each exercised.
func TestCubeAggregateEquivalence(t *testing.T) {
	cards := []int{6, 5, 4, 3}
	ds, err := Synthetic(SyntheticConfig{T: 500, Cards: cards, Skew: 0.9, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	aux := make([]float64, ds.NumTuples())
	for i := range aux {
		aux[i] = float64((i*13)%23) - 5
	}
	if err := ds.SetMeasure(aux); err != nil {
		t.Fatal(err)
	}
	tb := ds.Table()
	names := ds.Names()
	for _, kind := range []MeasureKind{MeasureSum, MeasureMin, MeasureMax} {
		cube, err := Materialize(ds, Options{MinSup: 1, Measure: kind})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(kind)))
		for i := 0; i < 60; i++ {
			spec := randomFacadeSpec(rng, cards)
			var groupDims []int
			var groupNames []string
			for d := range cards {
				if rng.Intn(2) == 0 {
					groupDims = append(groupDims, d)
					groupNames = append(groupNames, names[d])
				}
			}
			type agg struct {
				count int64
				aux   float64
			}
			want := map[string]*agg{}
			for tid := 0; tid < tb.NumTuples(); tid++ {
				ok := true
				for d, p := range spec {
					if !matchPred(p, tb.Cols[d][tid]) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				key := ""
				for _, d := range groupDims {
					key += fmt.Sprintf("%d,", tb.Cols[d][tid])
				}
				a := want[key]
				if a == nil {
					a = &agg{aux: tb.Aux[tid]}
					want[key] = a
				} else {
					switch kind {
					case MeasureMin:
						if tb.Aux[tid] < a.aux {
							a.aux = tb.Aux[tid]
						}
					case MeasureMax:
						if tb.Aux[tid] > a.aux {
							a.aux = tb.Aux[tid]
						}
					default:
						a.aux += tb.Aux[tid]
					}
				}
				a.count++
			}
			rows, exact, err := cube.Aggregate(spec, AggregateOptions{GroupBy: groupNames, AuxAgg: kind})
			if !exact {
				t.Fatal("minsup-1 aggregate must report exact")
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(want) {
				t.Fatalf("%v spec %d groupBy %v: %d rows, want %d", kind, i, groupNames, len(rows), len(want))
			}
			for _, r := range rows {
				key := ""
				for _, d := range groupDims {
					key += fmt.Sprintf("%d,", r.Values[d])
				}
				a := want[key]
				if a == nil {
					t.Fatalf("%v spec %d: unexpected group %v", kind, i, r.Values)
				}
				if r.Count != a.count {
					t.Fatalf("%v spec %d: group %v count %d, want %d", kind, i, r.Values, r.Count, a.count)
				}
				const eps = 1e-9
				if diff := r.Aux - a.aux; diff > eps || diff < -eps {
					t.Fatalf("%v spec %d: group %v aux %g, want %g", kind, i, r.Values, r.Aux, a.aux)
				}
			}
		}
	}
}

// TestCubeAggregateTopKByAux pins aux-ranked top-k through the facade.
func TestCubeAggregateTopKByAux(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{T: 300, Cards: []int{8, 5, 4}, Skew: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	aux := make([]float64, ds.NumTuples())
	for i := range aux {
		aux[i] = float64(i % 11)
	}
	if err := ds.SetMeasure(aux); err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1, Measure: MeasureSum})
	if err != nil {
		t.Fatal(err)
	}
	spec := make(QuerySpec, 3)
	all, _, err := cube.Aggregate(spec, AggregateOptions{GroupBy: []string{ds.Names()[0]}, By: ByAux})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Aux > all[i-1].Aux {
			t.Fatalf("rows not aux-descending at %d", i)
		}
	}
	top, _, err := cube.Aggregate(spec, AggregateOptions{GroupBy: []string{ds.Names()[0]}, By: ByAux, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || fmt.Sprint(top[0]) != fmt.Sprint(all[0]) {
		t.Fatalf("top-k by aux = %v", top)
	}
	// ByAux on a measureless cube is a structural error.
	plain, err := Materialize(ds, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plain.Aggregate(spec, AggregateOptions{By: ByAux}); err == nil {
		t.Fatal("ByAux without a measure must error")
	}
}

// TestCubeParseSpec pins the label-aware predicate syntax.
func TestCubeParseSpec(t *testing.T) {
	rows := [][]string{}
	for _, city := range []string{"oslo", "paris", "rome", "berlin"} {
		for _, year := range []string{"2023", "2024", "2025"} {
			rows = append(rows, []string{city, year})
		}
	}
	ds, err := NewDataset([]string{"city", "year"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Lexicographic label range over years, set over cities.
	spec, err := cube.ParseSpec([]string{"oslo|rome", "2024..2025"})
	if err != nil {
		t.Fatal(err)
	}
	if spec[0].Op != PredIn || len(spec[0].Set) != 2 {
		t.Fatalf("set predicate = %+v", spec[0])
	}
	if spec[1].Op != PredIn || len(spec[1].Set) != 2 {
		t.Fatalf("label range predicate = %+v (want the two codes of 2024, 2025)", spec[1])
	}
	rowsOut, _, err := cube.Aggregate(spec, AggregateOptions{GroupBy: []string{"city"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOut) != 2 {
		t.Fatalf("aggregate rows = %v, want oslo and rome", rowsOut)
	}
	for _, r := range rowsOut {
		if r.Count != 2 { // two matching years per city
			t.Fatalf("row %v count %d, want 2", r.Values, r.Count)
		}
	}

	// Unknown labels are honest misses: predicates matching nothing.
	spec, err = cube.ParseSpec([]string{"atlantis", "*"})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := cube.Select(spec, func(Cell) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("unknown label matched %d cells", n)
	}

	// Wrong arity and bad coded values are errors.
	if _, err := cube.ParseSpec([]string{"*"}); err == nil {
		t.Fatal("wrong arity must error")
	}
	coded, err := Synthetic(SyntheticConfig{T: 100, D: 2, C: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	codedCube, err := Materialize(coded, Options{MinSup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codedCube.ParseSpec([]string{"x", "*"}); err == nil {
		t.Fatal("non-numeric coded component must error")
	}
	cspec, err := codedCube.ParseSpec([]string{"0..2", "1|3"})
	if err != nil {
		t.Fatal(err)
	}
	if cspec[0].Op != PredRange || cspec[0].Lo != 0 || cspec[0].Hi != 2 {
		t.Fatalf("coded range = %+v", cspec[0])
	}
	if cspec[1].Op != PredIn || len(cspec[1].Set) != 2 {
		t.Fatalf("coded set = %+v", cspec[1])
	}
	// Unknown group-by dimension is an error.
	if _, _, err := cube.Aggregate(make(QuerySpec, 2), AggregateOptions{GroupBy: []string{"nope"}}); err == nil {
		t.Fatal("unknown group-by dimension must error")
	}
}

// TestCubeAggregateWideLabelRange covers a labeled lo..hi range that lowers
// to a large value set: 250 of a dimension's 500 labels, whose dictionary
// codes are scattered (first-occurrence order is not label order). Aggregate
// — through stored cells and, at min_sup 2, the residual — and Select must
// agree with a scan of the rows.
func TestCubeAggregateWideLabelRange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	regions := []string{"north", "south", "east", "west"}
	var rows [][]string
	for _, i := range rng.Perm(500) {
		for n := 1 + i%3; n > 0; n-- {
			rows = append(rows, []string{fmt.Sprintf("sku%03d", i), regions[rng.Intn(len(regions))]})
		}
	}
	ds, err := NewDataset([]string{"sku", "region"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = "sku100", "sku349"
	want := map[string]int64{}
	for _, r := range rows {
		if r[0] >= lo && r[0] <= hi {
			want[r[1]]++
		}
	}
	for _, minsup := range []int64{1, 2} {
		cube, err := Materialize(ds, Options{MinSup: minsup})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := cube.ParseSpec([]string{lo + ".." + hi, "*"})
		if err != nil {
			t.Fatal(err)
		}
		if spec[0].Op != PredIn || len(spec[0].Set) != 250 {
			t.Fatalf("label range lowered to %v with %d codes, want a 250-code set", spec[0].Op, len(spec[0].Set))
		}
		got, exact, err := cube.Aggregate(spec, AggregateOptions{GroupBy: []string{"region"}})
		if err != nil || !exact {
			t.Fatalf("minsup %d: aggregate exact=%v err=%v", minsup, exact, err)
		}
		if len(got) != len(want) {
			t.Fatalf("minsup %d: %d regions, want %d", minsup, len(got), len(want))
		}
		for _, r := range got {
			if region := cube.Labels(r.Values)[1]; want[region] != r.Count {
				t.Fatalf("minsup %d: region %s counts %d, the rows say %d", minsup, region, r.Count, want[region])
			}
		}
		// Select keeps exactly the stored cells fixing sku inside the range.
		if err := cube.Select(spec, func(c Cell) bool {
			if sku := cube.Labels(c.Values)[0]; sku < lo || sku > hi {
				t.Fatalf("minsup %d: Select visited %v outside the range", minsup, cube.Labels(c.Values))
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}
