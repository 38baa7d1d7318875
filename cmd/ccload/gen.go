package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"ccubing"
)

// regime is one relation shape plus the iceberg threshold it is cubed at. The
// three build regimes are the paper's Sec. 5 settings where AlgAuto resolves
// to each of its three engines.
type regime struct {
	T, D, C int
	MinSup  int64
	Measure bool // carry a sum measure column
}

var (
	regimeStar      = regime{T: 120000, D: 8, C: 50, MinSup: 4, Measure: true}
	regimeMM        = regime{T: 120000, D: 8, C: 50, MinSup: 64, Measure: true}
	regimeStarArray = regime{T: 120000, D: 6, C: 500, MinSup: 2, Measure: true}
	// The live relation is labeled and count-only: ccserve -csv takes no
	// measure column. 40 leading-dimension values = 40 refresh partitions.
	regimeLive = regime{T: 50000, D: 6, C: 40, MinSup: 2}
)

// queryCacheEntries mirrors ccubing.DefaultQueryCacheEntries: the hot pool
// must fit the result cache and the cold pool must not.
const queryCacheEntries = ccubing.DefaultQueryCacheEntries

// The end-to-end pass interleaves hot and cold segments, so the hot pool is
// small enough that its keys stay resident while the cold requests churn the
// rest of the cache: every hot key is touched again long before 4096 other
// entries have been inserted.
const (
	hotPoolSize  = queryCacheEntries / 8
	coldPoolSize = 3 * queryCacheEntries
)

// relation generates the seeded synthetic relation of a regime: Zipf(1)
// values per dimension, and — when the regime carries a measure — a column of
// small integers, so sums are exact in float64 whatever the fold order.
func relation(rg regime, seed int64) (*ccubing.Dataset, error) {
	ds, err := ccubing.Synthetic(ccubing.SyntheticConfig{T: rg.T, D: rg.D, C: rg.C, Skew: 1, Seed: seed})
	if err != nil {
		return nil, err
	}
	if rg.Measure {
		rng := rand.New(rand.NewSource(seed ^ 0x6d656173))
		aux := make([]float64, rg.T)
		for i := range aux {
			aux[i] = float64(1 + rng.Intn(100))
		}
		if err := ds.SetMeasure(aux); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

func (rg regime) options(workers int) ccubing.Options {
	opt := ccubing.Options{MinSup: rg.MinSup, Workers: workers}
	if rg.Measure {
		opt.Measure = ccubing.MeasureSum
	}
	return opt
}

// label is the dictionary label of a coded value in the labeled (CSV) form of
// a relation; URL- and JSON-safe by construction.
func label(d int, v int32) string { return "d" + strconv.Itoa(d) + "v" + strconv.Itoa(int(v)) }

// writeCSV renders rows as the CSV ccserve -csv loads: a header of dimension
// names, then one labeled tuple per line.
func writeCSV(w *bytes.Buffer, nd int, rows [][]int32) {
	for d := 0; d < nd; d++ {
		if d > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "dim%d", d)
	}
	w.WriteByte('\n')
	for _, r := range rows {
		for d, v := range r {
			if d > 0 {
				w.WriteByte(',')
			}
			w.WriteString(label(d, v))
		}
		w.WriteByte('\n')
	}
}

// csvOf renders a dataset as the labeled CSV ccserve -csv loads.
func csvOf(ds *ccubing.Dataset) []byte {
	var b bytes.Buffer
	writeCSV(&b, ds.NumDims(), rowsOf(ds))
	return b.Bytes()
}

// rowsOf copies a dataset's tuples out row-major.
func rowsOf(ds *ccubing.Dataset) [][]int32 {
	t := ds.Table()
	nd, n := t.NumDims(), t.NumTuples()
	flat := make([]int32, nd*n)
	rows := make([][]int32, n)
	for i := range rows {
		r := flat[i*nd : (i+1)*nd : (i+1)*nd]
		for d := 0; d < nd; d++ {
			r[d] = t.Cols[d][i]
		}
		rows[i] = r
	}
	return rows
}

// ---- requests ---------------------------------------------------------

// A request is kept structured so one seeded sequence can be replayed at
// every depth of the stack: rendered to HTTP bytes for a socket or the
// in-process handler, to facade calls, and to cubestore calls.

type predKind uint8

const (
	predAny predKind = iota
	predRange
	predSet
)

type pred struct {
	Kind   predKind
	Lo, Hi int32 // predRange, inclusive
	Set    []int32
}

// olapReq is one /v1/slice or /v1/aggregate call.
type olapReq struct {
	Slice   bool
	Cell    []int32 // slice target
	Limit   int
	Where   []pred // aggregate predicates, one per dimension
	GroupBy []int
	TopK    int
	ByAux   bool
}

// wire renders coded values the way the cube under test spells them: decimal
// codes, or the CSV labels of a labeled relation.
type wire struct{ labeled bool }

func (w wire) comp(d int, v int32) string {
	if v == ccubing.Star {
		return "*"
	}
	if w.labeled {
		return label(d, v)
	}
	return strconv.Itoa(int(v))
}

func (w wire) cell(vals []int32) []string {
	out := make([]string, len(vals))
	for d, v := range vals {
		out[d] = w.comp(d, v)
	}
	return out
}

// pointHTTP renders a point query as raw HTTP/1.1 request bytes.
func (w wire) pointHTTP(vals []int32) []byte {
	var b bytes.Buffer
	if w.labeled {
		b.WriteString("GET /v1/query?cell=")
		b.WriteString(strings.Join(w.cell(vals), ","))
	} else {
		b.WriteString("GET /v1/query?values=")
		for d, v := range vals {
			if d > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(v)))
		}
	}
	b.WriteString(" HTTP/1.1\r\nHost: ccload\r\n\r\n")
	return b.Bytes()
}

func postHTTP(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: ccload\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	return b.Bytes()
}

func jsonStrings(b *bytes.Buffer, ss []string) {
	b.WriteByte('[')
	for i, s := range ss {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(s))
	}
	b.WriteByte(']')
}

func (w wire) where(ps []pred) []string {
	out := make([]string, len(ps))
	for d, p := range ps {
		switch p.Kind {
		case predAny:
			out[d] = "*"
		case predRange:
			out[d] = w.comp(d, p.Lo) + ".." + w.comp(d, p.Hi)
		case predSet:
			parts := make([]string, len(p.Set))
			for i, v := range p.Set {
				parts[i] = w.comp(d, v)
			}
			out[d] = strings.Join(parts, "|")
		}
	}
	return out
}

func (r olapReq) groupNames() []string {
	out := make([]string, len(r.GroupBy))
	for i, d := range r.GroupBy {
		out[i] = "dim" + strconv.Itoa(d)
	}
	return out
}

func (r olapReq) orderBy() string {
	if r.ByAux {
		return "aux"
	}
	return "count"
}

// olapHTTP renders a slice or aggregate call as raw HTTP/1.1 request bytes.
func (w wire) olapHTTP(r olapReq) []byte {
	var b bytes.Buffer
	if r.Slice {
		b.WriteString(`{"cell":`)
		jsonStrings(&b, w.cell(r.Cell))
		fmt.Fprintf(&b, `,"limit":%d}`, r.Limit)
		return postHTTP("/v1/slice", b.Bytes())
	}
	b.WriteString(`{"where":`)
	jsonStrings(&b, w.where(r.Where))
	b.WriteString(`,"group_by":`)
	jsonStrings(&b, r.groupNames())
	fmt.Fprintf(&b, `,"top_k":%d,"order_by":%q}`, r.TopK, r.orderBy())
	return postHTTP("/v1/aggregate", b.Bytes())
}

// ---- pools and sequences ------------------------------------------------

func cellKey(vals []int32) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(strconv.Itoa(int(v)))
		b.WriteByte(',')
	}
	return b.String()
}

// sampleCells draws n stored closed cells uniformly (one walk of the store,
// which visits cells in a canonical order, so the sample repeats per seed).
func sampleCells(cube *ccubing.Cube, rng *rand.Rand, n int) [][]int32 {
	total := int(cube.NumCells())
	if n > total {
		n = total
	}
	pick := make(map[int]bool, n)
	for len(pick) < n {
		pick[rng.Intn(total)] = true
	}
	idx := make([]int, 0, n)
	for i := range pick {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([][]int32, 0, n)
	i, next := 0, 0
	cube.Cells(func(c ccubing.Cell) bool {
		if i == idx[next] {
			out = append(out, append([]int32(nil), c.Values...))
			next++
		}
		i++
		return next < len(idx)
	})
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// pointPool derives n distinct point queries from sampled stored cells, in
// equal thirds: the closed cell itself (one exact probe), the cell with one
// bound dimension starred (a covering probe that resolves to a closure), and
// the cell with one bound value replaced (usually an empty cell — a miss has
// to exhaust every covering group). cards bounds the replacement values.
func pointPool(cells [][]int32, cards []int, rng *rand.Rand, n int) [][]int32 {
	seen := make(map[string]bool, n)
	out := make([][]int32, 0, n)
	for i := 0; len(out) < n; i++ {
		if i >= 8*len(cells) {
			panic("ccload: cannot draw enough distinct point queries; sample more cells")
		}
		q := append([]int32(nil), cells[i%len(cells)]...)
		var bound []int
		for d, v := range q {
			if v != ccubing.Star {
				bound = append(bound, d)
			}
		}
		switch kind := (i + i/len(cells)) % 3; {
		case kind == 1 && len(bound) >= 2:
			q[bound[rng.Intn(len(bound))]] = ccubing.Star
		case kind == 2 && len(bound) >= 1:
			d := bound[rng.Intn(len(bound))]
			q[d] = (q[d] + 1 + int32(rng.Intn(cards[d]-1))) % int32(cards[d])
		}
		if k := cellKey(q); !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// tuplePool derives n distinct point queries from the relation's own tuples
// (the live workload's stores change every round, so there is no fixed cell
// set to sample): each keeps a random subset of 1..nd-1 dimensions bound.
func tuplePool(rows [][]int32, rng *rand.Rand, n int) [][]int32 {
	nd := len(rows[0])
	seen := make(map[string]bool, n)
	out := make([][]int32, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 64*n {
			panic("ccload: cannot draw enough distinct tuple queries")
		}
		q := append([]int32(nil), rows[rng.Intn(len(rows))]...)
		keep := 1 + rng.Intn(nd-1)
		for _, d := range rng.Perm(nd)[keep:] {
			q[d] = ccubing.Star
		}
		if k := cellKey(q); !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// zipfSeq draws n indices in [0,size) with P(i) ∝ 1/(i+1)^s.
func zipfSeq(rng *rand.Rand, s float64, size, n int) []int {
	cdf := make([]float64, size)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	out := make([]int, n)
	for i := range out {
		out[i] = sort.SearchFloat64s(cdf, rng.Float64()*sum)
		if out[i] >= size {
			out[i] = size - 1
		}
	}
	return out
}

// valueShares returns, per dimension, the share of tuples carrying each value.
func valueShares(rows [][]int32, cards []int) [][]float64 {
	out := make([][]float64, len(cards))
	for d, c := range cards {
		out[d] = make([]float64, c)
	}
	for _, r := range rows {
		for d, v := range r {
			out[d][v]++
		}
	}
	for d := range out {
		for v := range out[d] {
			out[d][v] /= float64(len(rows))
		}
	}
	return out
}

// olapPool draws n distinct slice and aggregate calls, alternating. Slices
// bind dimension 0 and one more (routable to one shard owner, and wide enough
// to hit the limit); aggregates put a range or set predicate on one
// dimension and group by two others, top 10 by count or by the measure. On a
// labeled relation ranges are lexicographic over labels, so only sets are
// drawn there.
//
// The relation is Zipf-skewed, so a request's cost follows the mass of the
// values it names, over two orders of magnitude. Throughput is estimated
// from segments of a few requests each, so the draw keeps costs comparable:
// slices bind values that 1.5-4% of the tuples carry, and aggregate
// predicates select 9-13% of the relation.
func olapPool(rows [][]int32, cards []int, measure, labeled bool, rng *rand.Rand, n int) []olapReq {
	nd := len(cards)
	share := valueShares(rows, cards)
	mid := func(d int, v int32) bool { return share[d][v] >= 0.015 && share[d][v] <= 0.04 }
	seen := make(map[string]bool, n)
	out := make([]olapReq, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 4096*n {
			panic("ccload: cannot draw enough distinct olap requests")
		}
		var r olapReq
		if len(out)%2 == 0 {
			row := rows[rng.Intn(len(rows))]
			d := 1 + rng.Intn(nd-1)
			if !mid(0, row[0]) || !mid(d, row[d]) {
				continue
			}
			r.Slice, r.Limit = true, 100
			r.Cell = make([]int32, nd)
			for i := range r.Cell {
				r.Cell[i] = ccubing.Star
			}
			r.Cell[0], r.Cell[d] = row[0], row[d]
		} else {
			r.Where = make([]pred, nd)
			perm := rng.Perm(nd)
			// An aggregate that names dimension 0 (the leading, partition and
			// routing dimension) costs a third of one that does not, so the
			// two kinds alternate instead of falling as the dice do.
			at0 := 0
			for i, d := range perm {
				if d == 0 {
					at0 = i
				}
			}
			if names0 := (len(out)/2)%2 == 0; names0 != (at0 < 3) {
				swap := rng.Intn(3)
				if !names0 {
					swap = 3 + rng.Intn(nd-3)
				}
				perm[at0], perm[swap] = perm[swap], perm[at0]
			}
			pd := perm[0]
			var mass float64
			if rng.Intn(2) == 0 && !labeled {
				lo := int32(rng.Intn(cards[pd]))
				hi := min(lo+int32(1+rng.Intn(max(1, cards[pd]/8))), int32(cards[pd]-1))
				r.Where[pd] = pred{Kind: predRange, Lo: lo, Hi: hi}
				for v := lo; v <= hi; v++ {
					mass += share[pd][v]
				}
			} else {
				set := make([]int32, 0, 4)
				for _, v := range rng.Perm(cards[pd])[:min(4, cards[pd])] {
					set = append(set, int32(v))
					mass += share[pd][v]
				}
				sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
				r.Where[pd] = pred{Kind: predSet, Set: set}
			}
			if mass < 0.09 || mass > 0.13 {
				continue
			}
			r.GroupBy = []int{perm[1], perm[2]}
			sort.Ints(r.GroupBy)
			r.TopK = 10
			r.ByAux = measure && rng.Intn(2) == 0
		}
		k := fmt.Sprintf("%+v", r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
