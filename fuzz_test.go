package ccubing

import (
	"bytes"
	"testing"

	"ccubing/internal/fuzzbound"
)

// FuzzLoadCube feeds arbitrary bytes to LoadCube. Property: a load error, or
// a cube whose Save output loads back and re-saves byte-identically — never a
// panic, never an allocation sized by what the input declares rather than
// what it holds. Seeds: a labeled cube's snapshot with every single-byte flip
// and every truncation (the corpus of TestCubeSnapshotEveryByteFlip), its
// checksummed declared-size lies (cubeSizeBombs), plus a residual-carrying
// measure cube and a residual-free iceberg one.
func FuzzLoadCube(f *testing.F) {
	labeled := cubeBytes(f, labeledCube(f, 0))
	fuzzbound.Corpus(labeled, func(b []byte) { f.Add(b) })
	for _, bomb := range cubeSizeBombs(f, labeled) {
		f.Add(bomb)
	}
	iceberg, err := Materialize(measureDataset(f, 67), Options{MinSup: 3, Measure: MeasureAvg})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cubeBytes(f, iceberg))
	f.Add(cubeBytes(f, residualFreeAvgCube(f)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var loaded *Cube
		var err error
		fuzzbound.Check(t, len(data), func() { loaded, err = LoadCube(bytes.NewReader(data)) })
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := loaded.Save(&first); err != nil {
			t.Fatalf("save of a loaded cube: %v", err)
		}
		again, err := LoadCube(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a saved cube does not load: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save → LoadCube → Save not byte-identical (%d vs %d bytes)", first.Len(), second.Len())
		}
	})
}
