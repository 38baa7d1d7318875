package partition

import (
	"os"
	"testing"

	"ccubing/internal/gen"
)

// TestPartitionWithAux: spill + load round-trips every tuple, the measure bit
// for bit — values with no short decimal form, below 1e-6 apart and past the
// int64 range included.
func TestPartitionWithAux(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 100, D: 3, C: 4, Seed: 13})
	tb.Aux = make([]float64, 100)
	for i := range tb.Aux {
		tb.Aux[i] = 19.99 + float64(i)*1e-7
	}
	tb.Aux[7], tb.Aux[8] = -1e300, 0.1+0.2
	want := map[[3]int32][]float64{}
	for tid, aux := range tb.Aux {
		k := [3]int32{tb.Cols[0][tid], tb.Cols[1][tid], tb.Cols[2][tid]}
		want[k] = append(want[k], aux)
	}

	dir := t.TempDir()
	buckets, err := Spill(tb, 0, []int32{0, 1, 0, 1}, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range buckets {
		pt, err := Load(b, tb)
		if err != nil {
			t.Fatal(err)
		}
		if pt.NumTuples() != b.Tuples {
			t.Fatalf("%s: loaded %d tuples, spilled %d", b.Path, pt.NumTuples(), b.Tuples)
		}
		n += b.Tuples
		for i, aux := range pt.Aux {
			k := [3]int32{pt.Cols[0][i], pt.Cols[1][i], pt.Cols[2][i]}
			if k[0]%2 != pt.Cols[0][0]%2 {
				t.Fatalf("%s mixes values %d and %d of the partition dimension", b.Path, pt.Cols[0][0], k[0])
			}
			// A bucket keeps the relation's tuple order.
			if len(want[k]) == 0 || want[k][0] != aux {
				t.Fatalf("tuple %v: measure %v after the round trip, want %v", k, aux, want[k])
			}
			want[k] = want[k][1:]
		}
	}
	if n != 100 {
		t.Fatalf("tuples after spill = %d", n)
	}

	// A file cut short, even by a whole record, is an error, not a shorter
	// relation.
	if err := os.Truncate(buckets[0].Path, int64(buckets[0].Tuples-1)*(3*4+8)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(buckets[0], tb); err == nil {
		t.Fatal("truncated bucket loaded")
	}
}

func TestBadDim(t *testing.T) {
	tb := gen.MustSynthetic(gen.Config{T: 10, D: 2, C: 2, Seed: 1})
	if _, err := Spill(tb, 5, []int32{0, 0}, 1, t.TempDir()); err == nil {
		t.Fatal("out-of-range dim must error")
	}
}
