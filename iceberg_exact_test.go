package ccubing

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"ccubing/internal/cubestore"
	"ccubing/internal/refresh"
)

// measureDataset builds a synthetic dataset with an integer-valued measure
// column (so float sums are exact and comparisons can be byte-strict).
func measureDataset(t testing.TB, seed int64) *Dataset {
	t.Helper()
	ds, err := Synthetic(SyntheticConfig{T: 600, Cards: []int{7, 6, 5, 4}, Skew: 1.0, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	aux := make([]float64, ds.NumTuples())
	for i := range aux {
		aux[i] = float64((i*11)%29) - 6
	}
	if err := ds.SetMeasure(aux); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestCubeAggregateIcebergExact is the in-process half of the PR's acceptance
// contract: Cube.Aggregate on an iceberg cube (MinSup > 1, residual attached
// by Materialize) reports exact=true and returns rows identical — counts,
// measure values, order — to a MinSup-1 cube over the same relation, for
// every measure kind including algebraic avg.
func TestCubeAggregateIcebergExact(t *testing.T) {
	ds := measureDataset(t, 61)
	names := ds.Names()
	for _, kind := range []MeasureKind{MeasureSum, MeasureMin, MeasureMax, MeasureAvg} {
		iceberg, err := Materialize(ds, Options{MinSup: 3, Measure: kind})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := Materialize(ds, Options{MinSup: 1, Measure: kind})
		if err != nil {
			t.Fatal(err)
		}
		if iceberg.NumCells() >= oracle.NumCells() {
			t.Fatalf("kind=%v: iceberg cube prunes nothing (%d vs %d cells)", kind, iceberg.NumCells(), oracle.NumCells())
		}
		rng := rand.New(rand.NewSource(int64(kind) * 7))
		for i := 0; i < 100; i++ {
			spec := randomFacadeSpec(rng, []int{7, 6, 5, 4})
			var groupBy []string
			for d := range names {
				if rng.Intn(3) == 0 {
					groupBy = append(groupBy, names[d])
				}
			}
			opt := AggregateOptions{GroupBy: groupBy, AuxAgg: kind}
			if rng.Intn(2) == 0 {
				opt.By = ByAux
			}
			got, exact, err := iceberg.Aggregate(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !exact {
				t.Fatalf("kind=%v spec %d: iceberg cube with residual must report exact", kind, i)
			}
			want, oExact, err := oracle.Aggregate(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !oExact {
				t.Fatal("minsup-1 aggregate must report exact")
			}
			if len(got) != len(want) {
				t.Fatalf("kind=%v spec %d group-by %v: %d rows, oracle has %d", kind, i, groupBy, len(got), len(want))
			}
			for j := range got {
				if got[j].Count != want[j].Count || got[j].Aux != want[j].Aux ||
					fmt.Sprint(got[j].Values) != fmt.Sprint(want[j].Values) {
					t.Fatalf("kind=%v spec %d row %d: iceberg %+v, oracle %+v", kind, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestCubeSnapshotIcebergMeasureRoundTrip pins the version-4 snapshot: an avg
// iceberg cube saves the aux-form flag and the store residual, round-trips
// byte-identically, and the loaded cube keeps both the stored-aggregate form
// and the exactness property.
func TestCubeSnapshotIcebergMeasureRoundTrip(t *testing.T) {
	ds := measureDataset(t, 67)
	cube, err := Materialize(ds, Options{MinSup: 3, Measure: MeasureAvg})
	if err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := cube.Save(&buf1); err != nil {
		t.Fatal(err)
	}
	if got := buf1.Bytes()[7]; got != CubeSnapshotVersion {
		t.Fatalf("snapshot version byte %d, want %d", got, CubeSnapshotVersion)
	}
	loaded, err := LoadCube(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("snapshot not byte-identical after round trip (%d vs %d bytes)", buf1.Len(), buf2.Len())
	}
	if loaded.Measure() != MeasureAvg {
		t.Fatalf("loaded cube lost its measure kind (%v)", loaded.Measure())
	}
	spec := make(QuerySpec, ds.NumDims())
	groupBy := []string{ds.Names()[0], ds.Names()[2]}
	got, exact, err := loaded.Aggregate(spec, AggregateOptions{GroupBy: groupBy})
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatal("loaded iceberg cube must keep its residual-backed exactness")
	}
	want, _, err := cube.Aggregate(spec, AggregateOptions{GroupBy: groupBy})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded aggregate has %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Count != want[i].Count || got[i].Aux != want[i].Aux {
			t.Fatalf("loaded aggregate row %d diverges: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// rewriteCubeHeader applies edit to the metadata header of a cube snapshot
// and recomputes the header CRC, so the mutation reaches the field checks
// instead of tripping the checksum.
func rewriteCubeHeader(t testing.TB, raw []byte, edit func(head []byte)) []byte {
	t.Helper()
	out := append([]byte(nil), raw...)
	edit(out[cubeFixedLen : cubeFixedLen+int(binary.LittleEndian.Uint32(out[len(cubeMagic)+1:]))])
	crcAt := payloadOffset(out) - 4
	binary.LittleEndian.PutUint32(out[crcAt:], crc32.ChecksumIEEE(out[:crcAt]))
	return out
}

// residualFreeAvgCube wraps a hand-built iceberg store — cells at min_sup 3,
// built through cubestore.Builder WITHOUT SetResidual — in a static avg cube.
// Relation: (0,0) x2 with aux 2.0 each, (1,1) x3 with aux 3.0 each; the
// closed iceberg cells are the apex (sum 13) and (1,1) (sum 9), in stored
// form.
func residualFreeAvgCube(t testing.TB) *Cube {
	t.Helper()
	b := cubestore.NewBuilder(2, true)
	b.Add([]int32{Star, Star}, 5, 13)
	b.Add([]int32{1, 1}, 3, 9)
	store, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cube := &Cube{names: []string{"a", "b"}, minSup: 3, measure: MeasureAvg}
	cube.static.Store(&refresh.Snapshot{Store: store, Rows: 5})
	return cube
}

// TestCubeSnapshotResidualFree pins the honest-degrade contract: a
// current-version iceberg snapshot whose store carries no residual loads,
// presents its stored avg sums at egress, round-trips byte-identically, and
// reports exact=false on aggregates instead of passing bounds off as totals.
func TestCubeSnapshotResidualFree(t *testing.T) {
	var raw bytes.Buffer
	if err := residualFreeAvgCube(t).Save(&raw); err != nil {
		t.Fatal(err)
	}
	cube, err := LoadCube(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cube.MinSup() != 3 || cube.Measure() != MeasureAvg {
		t.Fatalf("loaded metadata: minsup %d, measure %v", cube.MinSup(), cube.Measure())
	}
	var again bytes.Buffer
	if err := cube.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw.Bytes(), again.Bytes()) {
		t.Fatalf("residual-free snapshot not byte-identical after round trip (%d vs %d bytes)", raw.Len(), again.Len())
	}
	cell, ok := cube.Lookup([]int32{1, 1})
	if !ok || cell.Aux != 3.0 {
		t.Fatalf("avg cell = (%+v, %v), want the stored sum 9 presented as 3.0", cell, ok)
	}
	if stored, ok := cube.LookupStored([]int32{1, 1}); !ok || stored.Aux != 9 {
		t.Fatalf("stored cell = (%+v, %v), want aux 9", stored, ok)
	}
	// No residual in the store: iceberg aggregates are lower bounds.
	rows, exact, err := cube.Aggregate(make(QuerySpec, 2), AggregateOptions{GroupBy: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if exact {
		t.Fatal("residual-free iceberg cube must report exact=false")
	}
	if len(rows) == 0 {
		t.Fatal("residual-free cube must still answer aggregates")
	}
}

// TestCubeSnapshotLegacyV3Load pins the single-version contract: snapshots
// of the four older layouts (1: no generation/row metadata, 2: no measure
// kind, 3: no aux-form byte, no store residual, 4: varint store payload) are
// rejected by version with a descriptive error — never parsed as the current
// layout, never a panic.
func TestCubeSnapshotLegacyV3Load(t *testing.T) {
	var raw bytes.Buffer
	if err := residualFreeAvgCube(t).Save(&raw); err != nil {
		t.Fatal(err)
	}
	for v := byte(1); v < CubeSnapshotVersion; v++ {
		old := append([]byte(nil), raw.Bytes()...)
		old[len(cubeMagic)] = v
		_, err := LoadCube(bytes.NewReader(old))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported snapshot version %d", v)) {
			t.Fatalf("version %d: err %v, want an unsupported-version error", v, err)
		}
	}
}

// TestLoadCubeRejectsBadHeaderBytes is the regression test for the unchecked
// algorithm byte: a CRC-valid header naming an engine that does not exist
// used to load and surface as "Algorithm(200)" through /v1/meta. The aux-form
// byte gets the same treatment — only the stored form exists.
func TestLoadCubeRejectsBadHeaderBytes(t *testing.T) {
	var raw bytes.Buffer
	if err := residualFreeAvgCube(t).Save(&raw); err != nil {
		t.Fatal(err)
	}
	// Header layout: minsup uvarint (3: one byte), algorithm, measure kind,
	// aux form.
	cases := []struct {
		name    string
		off     int
		val     byte
		wantErr string
	}{
		{"algorithm", 1, 200, "unknown algorithm 200"},
		{"algorithm just past the last engine", 1, byte(AlgOBBUC) + 1, "unknown algorithm"},
		{"aux form", 3, 0, "unsupported aux form 0"},
	}
	for _, c := range cases {
		mut := rewriteCubeHeader(t, raw.Bytes(), func(head []byte) { head[c.off] = c.val })
		_, err := LoadCube(bytes.NewReader(mut))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("%s: err %v, want %q", c.name, err, c.wantErr)
		}
	}
	ok := rewriteCubeHeader(t, raw.Bytes(), func(head []byte) { head[1] = byte(AlgOBBUC) })
	cube, err := LoadCube(bytes.NewReader(ok))
	if err != nil || cube.Algorithm() != AlgOBBUC {
		t.Fatalf("last valid algorithm byte: cube %v, err %v", cube, err)
	}
}
