// Package psort provides the tuple-ID partitioning and sorting primitives
// shared by the cubing engines: counting-sort partitioning of a TID range by
// one dimension (BUC, QC-DFS) and stable LSD radix sort of TIDs by a
// dimension sequence (star-tree and StarArray construction, pool ordering).
package psort

import (
	"slices"
	"sort"

	"ccubing/internal/core"
)

// Buckets describes the result of partitioning a TID range by one dimension:
// for each distinct value present, the half-open range of positions it
// occupies after the sort.
type Buckets struct {
	// Vals lists the distinct values present, ascending.
	Vals []core.Value
	// Off[i]..Off[i+1] is the range of Vals[i]; len(Off) == len(Vals)+1.
	Off []int
}

// Partitioner counting-sorts TID ranges by a dimension. It owns reusable
// scratch so repeated partitioning does not allocate. A Partitioner is not
// safe for concurrent use.
type Partitioner struct {
	counts []int64
	tmp    []core.TID
	b      Buckets
}

// Partition stably counting-sorts tids (in place) by col and returns the
// value buckets. card bounds the values in col. The returned Buckets is
// valid until the next Partition call.
//
// Large partitions pay O(len(tids) + card) — the authentic BUC cost profile
// the paper discusses for high-cardinality data. Partitions much smaller
// than the cardinality skip the full-card scan: distinct values are gathered
// from the data and the count array is cleaned touched-entries-only, so deep
// recursions over tiny partitions stay O(len(tids) log len(tids)).
func (p *Partitioner) Partition(tids []core.TID, col []core.Value, card int) Buckets {
	if cap(p.counts) < card {
		p.counts = make([]int64, card)
		// Fresh array is already zero; the invariant below keeps it zero
		// between calls.
	}
	counts := p.counts[:card]
	if cap(p.tmp) < len(tids) {
		p.tmp = make([]core.TID, len(tids))
	}
	tmp := p.tmp[:len(tids)]
	p.b.Vals = p.b.Vals[:0]
	p.b.Off = p.b.Off[:0]
	p.b.Off = append(p.b.Off, 0)

	// counts[] is all-zero on entry (maintained below), so only touched
	// entries need attention in either path.
	if len(tids)*8 < card {
		// Sparse path: collect distinct values from the data.
		for _, t := range tids {
			v := col[t]
			if counts[v] == 0 {
				p.b.Vals = append(p.b.Vals, v)
			}
			counts[v]++
		}
		sort.Slice(p.b.Vals, func(i, j int) bool { return p.b.Vals[i] < p.b.Vals[j] })
		pos := 0
		for _, v := range p.b.Vals {
			c := counts[v]
			pos += int(c)
			p.b.Off = append(p.b.Off, pos)
			counts[v] = int64(pos) - c
		}
	} else {
		for _, t := range tids {
			counts[col[t]]++
		}
		pos := 0
		for v := 0; v < card; v++ {
			c := counts[v]
			if c == 0 {
				continue
			}
			p.b.Vals = append(p.b.Vals, core.Value(v))
			pos += int(c)
			p.b.Off = append(p.b.Off, pos)
			counts[v] = int64(pos) - c // bucket write cursor start
		}
	}
	for _, t := range tids {
		v := col[t]
		tmp[counts[v]] = t
		counts[v]++
	}
	copy(tids, tmp)
	// Restore the all-zero invariant touching only used entries.
	for _, v := range p.b.Vals {
		counts[v] = 0
	}
	return p.b
}

// LexSort stably sorts tids by the given dimension sequence (most-significant
// dimension first) using LSD radix passes of counting sort, O(Σ(card_d) +
// len(dims)·len(tids)). Values are compared through view, which maps a
// (dim, value) pair to a sort key in [0, cards[d]+1) — engines use it to fold
// star reduction into the order (mapping infrequent values to the extra key
// cards[d], so they group last); pass nil to sort by raw values.
func LexSort(tids []core.TID, cols core.Columns, dims []int, cards []int, view func(d int, v core.Value) core.Value) {
	if len(tids) < 2 {
		return
	}
	var p Partitioner
	tmp := make([]core.TID, len(tids))
	// LSD: least-significant dimension first; each pass is a stable counting
	// sort, so after the final (most-significant) pass the order is
	// lexicographic.
	for i := len(dims) - 1; i >= 0; i-- {
		d := dims[i]
		card := cards[d] + 1 // +1 headroom for star-mapped keys
		if cap(p.counts) < card {
			p.counts = make([]int64, card)
		}
		counts := p.counts[:card]
		for j := range counts {
			counts[j] = 0
		}
		col := cols[d]
		if view == nil {
			for _, t := range tids {
				counts[col[t]]++
			}
		} else {
			for _, t := range tids {
				counts[view(d, col[t])]++
			}
		}
		sum := int64(0)
		for v := range counts {
			counts[v], sum = sum, sum+counts[v]
		}
		if view == nil {
			for _, t := range tids {
				v := col[t]
				tmp[counts[v]] = t
				counts[v]++
			}
		} else {
			for _, t := range tids {
				v := view(d, col[t])
				tmp[counts[v]] = t
				counts[v]++
			}
		}
		copy(tids, tmp)
	}
}

// TopK reorders xs so that its k first elements under cmp lead it, in order,
// and returns that prefix; with k <= 0 or k >= len(xs) it sorts all of xs.
// It selects through a k-element heap, O(n log k), and sorts only the
// survivors — the result equals slices.SortFunc(xs, cmp) truncated to k when
// cmp is a strict total order.
func TopK[T any](xs []T, k int, cmp func(a, b T) int) []T {
	if k <= 0 || k >= len(xs) {
		slices.SortFunc(xs, cmp)
		return xs
	}
	// h is a max-heap under cmp: its root is the last of the k kept so far.
	h := xs[:k]
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= k {
				return
			}
			if c+1 < k && cmp(h[c+1], h[c]) > 0 {
				c++
			}
			if cmp(h[c], h[i]) <= 0 {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(i)
	}
	for i := k; i < len(xs); i++ {
		if cmp(xs[i], h[0]) < 0 {
			h[0], xs[i] = xs[i], h[0]
			down(0)
		}
	}
	slices.SortFunc(h, cmp)
	return h
}
