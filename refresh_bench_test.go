package ccubing

// Refresh benchmarks: partition-scoped incremental refresh versus the full
// rebuild it replaces, on a delta touching ≤10% of the leading-dimension
// partitions. scripts/bench.sh records both arms (with -benchmem) into
// BENCH_<date>.json, so the series tracks the refresh advantage over time.

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchRefreshSetup builds the base rows and a delta confined to `touched`
// of the leading dimension's `leadCard` partitions.
func benchRefreshSetup(b *testing.B, touched int) (base, delta [][]int32) {
	b.Helper()
	const (
		baseRows  = 40_000
		deltaRows = 2_000
		leadCard  = 64
	)
	cards := []int{leadCard, 12, 12, 12, 8}
	rng := rand.New(rand.NewSource(benchSeed()))
	rows := func(n int, lead func() int32) [][]int32 {
		out := make([][]int32, n)
		for i := range out {
			row := make([]int32, len(cards))
			row[0] = lead()
			for d := 1; d < len(cards); d++ {
				row[d] = int32(rng.Intn(cards[d]))
			}
			out[i] = row
		}
		return out
	}
	base = rows(baseRows, func() int32 { return int32(rng.Intn(leadCard)) })
	delta = rows(deltaRows, func() int32 { return int32(rng.Intn(touched)) })
	return base, delta
}

// BenchmarkRefresh measures one incremental refresh (append + partition-
// scoped recompute + merge + swap) against materializing the grown relation
// from scratch — the only alternative before the refresh subsystem. The
// delta touches 4 of 64 leading-dimension partitions (~6%), the regime the
// acceptance criterion names.
func BenchmarkRefresh(b *testing.B) {
	const minsup, workers = 4, 4
	base, delta := benchRefreshSetup(b, 4)
	baseDS, err := NewDatasetFromValues(nil, base)
	if err != nil {
		b.Fatal(err)
	}
	full := append(append([][]int32{}, base...), delta...)
	fullDS, err := NewDatasetFromValues(nil, full)
	if err != nil {
		b.Fatal(err)
	}

	b.Run(fmt.Sprintf("incremental/delta=%d", len(delta)), func(b *testing.B) {
		benchAppendRefresh(b, baseDS, delta, Options{MinSup: minsup, Workers: workers})
	})
	b.Run(fmt.Sprintf("rebuild/delta=%d", len(delta)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Materialize(fullDS, Options{MinSup: minsup, Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRefreshSpread measures one incremental refresh of a 200-row append
// spread over every one of the 64 leading-dimension partitions of
// BenchmarkRefresh's relation: the scatter shape, where a refresh that recubed
// each touched partition whole would recube the whole relation.
func BenchmarkRefreshSpread(b *testing.B) {
	base, delta := benchRefreshSetup(b, 64)
	delta = delta[:200]
	for i, row := range delta {
		row[0] = int32(i % 64)
	}
	baseDS, err := NewDatasetFromValues(nil, base)
	if err != nil {
		b.Fatal(err)
	}
	benchAppendRefresh(b, baseDS, delta, Options{MinSup: 4, Workers: 4})
}

// benchAppendRefresh times one Refresh folding delta, appended to a cube
// freshly materialized from base before each iteration.
func benchAppendRefresh(b *testing.B, base *Dataset, delta [][]int32, opt Options) {
	b.ReportAllocs()
	var last RefreshStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cube, err := Materialize(base, opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cube.AppendValues(delta, nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if last, err = cube.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(last.PartitionsRecomputed), "parts-recomputed/op")
	b.ReportMetric(float64(last.PartitionsTotal), "parts-total/op")
}

// BenchmarkRefreshDelete measures a delete-heavy refresh: tombstones for
// ~5% of the relation, confined to 4 of 64 leading-dimension partitions,
// against materializing the shrunken relation from scratch — the tombstone
// mirror of BenchmarkRefresh.
func BenchmarkRefreshDelete(b *testing.B) {
	const minsup, workers = 4, 4
	base, _ := benchRefreshSetup(b, 4)
	baseDS, err := NewDatasetFromValues(nil, base)
	if err != nil {
		b.Fatal(err)
	}
	// Tombstone every copy the delete batch names exactly once: pick rows of
	// the touched partitions, skipping duplicates already chosen.
	var dels [][]int32
	rest := make([][]int32, 0, len(base))
	for _, row := range base {
		if row[0] < 4 && len(dels) < 2_000 {
			dels = append(dels, row)
		} else {
			rest = append(rest, row)
		}
	}
	restDS, err := NewDatasetFromValues(nil, rest)
	if err != nil {
		b.Fatal(err)
	}

	b.Run(fmt.Sprintf("incremental/tombstones=%d", len(dels)), func(b *testing.B) {
		b.ReportAllocs()
		var last RefreshStats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cube, err := Materialize(baseDS, Options{MinSup: minsup, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cube.Delete(dels, nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if last, err = cube.Refresh(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(last.PartitionsRecomputed), "parts-recomputed/op")
		b.ReportMetric(float64(last.Deleted), "tombstones/op")
	})
	b.Run(fmt.Sprintf("rebuild/tombstones=%d", len(dels)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Materialize(restDS, Options{MinSup: minsup, Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRefreshAppend measures raw delta-log ingestion (no refresh).
func BenchmarkRefreshAppend(b *testing.B) {
	base, delta := benchRefreshSetup(b, 4)
	baseDS, err := NewDatasetFromValues(nil, base)
	if err != nil {
		b.Fatal(err)
	}
	cube, err := Materialize(baseDS, Options{MinSup: 4, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.AppendValues(delta, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.SetBytes(int64(len(delta) * len(delta[0]) * 4))
}
