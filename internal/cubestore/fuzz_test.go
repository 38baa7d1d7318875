package cubestore

import (
	"bytes"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/fuzzbound"
)

// FuzzStoreLoad feeds arbitrary bytes to Open. Property: an error, or a store
// whose Save output opens again and re-saves byte-identically — never a
// panic, never an allocation sized by what the input declares rather than
// what it holds. Seeds: valid snapshots with and without a residual, every
// single-byte flip and every truncation of a small one (the corpora of the
// EveryByteFlip tests), and the checksummed declared-size lies of sizeBombs.
func FuzzStoreLoad(f *testing.F) {
	small := NewBuilder(2, true)
	small.Add([]core.Value{core.Star, core.Star}, 3, 6)
	small.Add([]core.Value{1, core.Star}, 2, 5)
	if err := small.SetResidual(ComputeResidual(core.Columns{{0, 1, 1}, {0, 1, 2}}, []float64{1, 2, 3}, 2, core.MeasureSum)); err != nil {
		f.Fatal(err)
	}
	s, err := small.Build()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	fuzzbound.Corpus(append([]byte(nil), buf.Bytes()...), func(b []byte) { f.Add(b) })
	tbl := testTable(f, 150, []int{5, 4, 3}, 0.8, 19)
	for _, st := range []*Store{buildFromClosed(f, tbl, 2), buildWithResidual(f, tbl, 3, core.MeasureAvg)} {
		buf.Reset()
		if err := st.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
	}
	for _, bomb := range sizeBombs() {
		f.Add(bomb)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var loaded *Store
		var err error
		fuzzbound.Check(t, len(data), func() { loaded, err = openCopy(data) })
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := loaded.Save(&first); err != nil {
			t.Fatalf("save of a loaded store: %v", err)
		}
		again, err := openCopy(first.Bytes())
		if err != nil {
			t.Fatalf("a saved store does not open: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save → Open → Save not byte-identical (%d vs %d bytes)", first.Len(), second.Len())
		}
	})
}
