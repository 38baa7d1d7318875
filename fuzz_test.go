package ccubing

import (
	"bytes"
	"strings"
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

// FuzzParseSpec feeds arbitrary where= strings (comma-separated, one component
// per dimension, as the serving layer splits them) to Cube.ParseSpec on a
// labeled and on a coded cube. Property: no panic, and every accepted spec
// lowers through storeSpec and answers Aggregate. Seeds: the README's where=
// examples and the ".." / "|" edge cases — empty halves, a lone separator, a
// 1 MB component.
func FuzzParseSpec(f *testing.F) {
	labeled, err := NewDataset([]string{"city", "product", "year"}, [][]string{
		{"oslo", "pen", "2023"}, {"oslo", "ink", "2024"}, {"rome", "pen", "2025"},
		{"rome", "pad", "2022"}, {"oslo", "pen", "2023"},
	})
	if err != nil {
		f.Fatal(err)
	}
	coded, err := NewDatasetFromValues([]string{"a", "b", "c"}, [][]int32{
		{0, 1, 2}, {0, 2, 3}, {1, 1, 2}, {1, 0, 5}, {0, 1, 2},
	})
	if err != nil {
		f.Fatal(err)
	}
	var cubes []*Cube
	for _, ds := range []*Dataset{labeled, coded} {
		cube, err := Materialize(ds, Options{})
		if err != nil {
			f.Fatal(err)
		}
		cubes = append(cubes, cube)
	}
	for _, where := range []string{
		"*,pen|ink,*", "*,pen|ink,2023..2025", "oslo,*,2024", "0,1|2,2..3", "1,*,",
		"..,*,*", "a..,*,*", "*,..z,*", "*,|,*", "*,pen|,|ink", "*,1|,*", "*,*,3..2", "*,*,-1..4",
		"*,*,2....3", "*,*,2..3|4", "*,*", "*,*,*,*", "", strings.Repeat("x", 1<<20) + ",*,*",
		"*,0.." + strings.Repeat("9", 1<<20) + ",*",
	} {
		f.Add(where)
	}
	f.Fuzz(func(t *testing.T, where string) {
		for _, cube := range cubes {
			spec, err := cube.ParseSpec(strings.Split(where, ","))
			if err != nil {
				continue
			}
			// Aggregate lowers the spec through storeSpec before it answers.
			if _, _, err := cube.Aggregate(spec, AggregateOptions{GroupBy: []string{cube.names[0]}}); err != nil {
				t.Fatalf("ParseSpec accepted %q but Aggregate rejects it: %v", where, err)
			}
		}
	})
}
