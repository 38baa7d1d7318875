package ccubing

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"ccubing/internal/fuzzbound"
)

// cubeBytes saves a cube into memory.
func cubeBytes(t testing.TB, c *Cube) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// payloadOffset returns where the store payload of a cube snapshot starts.
func payloadOffset(raw []byte) int {
	metaEnd := cubeFixedLen + int(binary.LittleEndian.Uint32(raw[len(cubeMagic)+1:]))
	return (metaEnd + 4 + 7) &^ 7
}

// cubeSizeBombs are cube snapshots that pass every checksum and declare more
// than they hold: in the metadata (header length, a dictionary's label count,
// a string's length) and in the store header behind it (group count, a
// group's rows, residual rows, total length).
func cubeSizeBombs(t testing.TB, raw []byte) map[string][]byte {
	t.Helper()
	off := payloadOffset(raw)
	patchStore := func(at int, v uint64) []byte {
		out := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(out[off+at:], v)
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[off:len(out)-4]))
		return out
	}
	hlen := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(hlen[len(cubeMagic)+1:], 1<<32-1)
	// Metadata of the labeled two-dimension cube: minsup, alg, measure, aux
	// form, generation, rows, nd — one byte each — then the first name's
	// length at offset 7, and after both one-letter names and the dictionary
	// flag the first dictionary's label count at offset 12.
	return map[string][]byte{
		"header length":   hlen,
		"string length":   rewriteCubeHeader(t, raw, func(head []byte) { head[7] = 0x7f }),
		"label count":     rewriteCubeHeader(t, raw, func(head []byte) { head[12] = 0x7f }),
		"store groups":    patchStore(16, 1<<36),
		"store rows":      patchStore(40+8, 1<<60),
		"store residual":  patchStore(24, 1<<60),
		"store total":     patchStore(32, uint64(len(raw)-off)+8),
		"store total < n": patchStore(32, uint64(len(raw)-off)-8),
	}
}

// labeledCube is the small dictionary-carrying cube the corruption corpora
// are built from; pad lengthens the first dimension's name, which moves the
// header through every padding length.
func labeledCube(t testing.TB, pad int) *Cube {
	t.Helper()
	ds, err := NewDataset([]string{"a" + strings.Repeat("x", pad), "b"},
		[][]string{{"x", "p"}, {"x", "q"}, {"y", "p"}, {"y", "p"}})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Materialize(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// TestLoadCubeRejectsSizeBombs: no declared size, in the metadata or in the
// store header, is believed before the buffer bounds it.
func TestLoadCubeRejectsSizeBombs(t *testing.T) {
	for name, bomb := range cubeSizeBombs(t, cubeBytes(t, labeledCube(t, 0))) {
		var err error
		fuzzbound.Check(t, len(bomb), func() { _, err = LoadCube(bytes.NewReader(bomb)) })
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCubeSnapshotAlignment: whatever the metadata's length, the store
// payload starts 8-byte aligned in the file, the padding that puts it there
// is zero and checked, and the snapshot round-trips.
func TestCubeSnapshotAlignment(t *testing.T) {
	seen := map[int]bool{}
	for pad := 0; pad < 8; pad++ {
		raw := cubeBytes(t, labeledCube(t, pad))
		off := payloadOffset(raw)
		if off%8 != 0 || string(raw[off:off+6]) != "CCSTOR" {
			t.Fatalf("pad %d: payload at offset %d: %q", pad, off, raw[off:off+8])
		}
		padLen := off - 4 - cubeFixedLen - int(binary.LittleEndian.Uint32(raw[len(cubeMagic)+1:]))
		seen[padLen] = true
		if padLen > 0 { // padding that is not zero, under a checksum that agrees
			mut := bytes.Clone(raw)
			mut[off-5] = 1
			binary.LittleEndian.PutUint32(mut[off-4:], crc32.ChecksumIEEE(mut[:off-4]))
			if _, err := LoadCube(bytes.NewReader(mut)); err == nil {
				t.Fatalf("pad %d: nonzero header padding accepted", pad)
			}
		}
		loaded, err := LoadCube(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		if again := cubeBytes(t, loaded); !bytes.Equal(raw, again) {
			t.Fatalf("pad %d: Save → LoadCube → Save not byte-identical", pad)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("padding lengths seen: %v, want all of 0..7", seen)
	}
}

// TestLoadCubeReaders loads one snapshot through every kind of reader
// LoadCube distinguishes — a file, a file read from an offset, a sized
// in-memory reader, and readers that cannot say their size — and requires the
// same cube from each; reading the sized ones must cost one buffer of exactly
// that size.
func TestLoadCubeReaders(t *testing.T) {
	cube, err := Materialize(measureDataset(t, 67), Options{MinSup: 3, Measure: MeasureAvg})
	if err != nil {
		t.Fatal(err)
	}
	raw := cubeBytes(t, cube)
	path := filepath.Join(t.TempDir(), "cube.ccube")
	prefix := []byte("sixteen bytes..\n")
	if err := os.WriteFile(path, append(bytes.Clone(prefix), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func() *os.File {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if _, err := f.Seek(int64(len(prefix)), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, c := range []struct {
		name string
		r    func() io.Reader
		// sized: the reader can say how much it holds.
		sized bool
	}{
		{"file at offset", func() io.Reader { return open() }, true},
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(raw) }, true},
		{"bytes.Buffer", func() io.Reader { return bytes.NewBuffer(bytes.Clone(raw)) }, true},
		{"bufio over file", func() io.Reader { return bufio.NewReader(open()) }, false},
		{"one byte at a time", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(raw)) }, false},
	} {
		r := c.r()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		data, err := readAll(r)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(data, raw) {
			t.Fatalf("%s: readAll returned %d bytes, err %v", c.name, len(data), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; c.sized && got > uint64(len(raw))+4096 {
			t.Errorf("%s: reading %d bytes allocated %d", c.name, len(raw), got)
		}
		loaded, err := LoadCube(c.r())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again := cubeBytes(t, loaded); !bytes.Equal(raw, again) {
			t.Fatalf("%s: loaded cube saves differently", c.name)
		}
		if load := loaded.SnapshotLoad(); load.Bytes != int64(len(raw)) || load.Verify <= 0 || load.Index <= 0 {
			t.Fatalf("%s: SnapshotLoad = %+v", c.name, load)
		}
	}
	if load := cube.SnapshotLoad(); load != (SnapshotLoad{}) {
		t.Fatalf("a materialized cube reports a snapshot load: %+v", load)
	}
}

// TestSaveFileLoadCubeFile covers the file pair: SaveFile leaves exactly the
// snapshot at path (readable by others, no temporary beside it), replaces an
// existing file whole, and LoadCubeFile reads it back; failures name the path
// and leave nothing behind.
func TestSaveFileLoadCubeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cube.ccube")
	if err := os.WriteFile(path, []byte("an older snapshot, longer than nothing"), 0o600); err != nil {
		t.Fatal(err)
	}
	cube := labeledCube(t, 0)
	if err := cube.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, cubeBytes(t, cube)) {
		t.Fatalf("file holds %d bytes (err %v), want the cube's %d", len(got), err, len(cubeBytes(t, cube)))
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, err %v, want 0644", st.Mode(), err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after SaveFile, want the snapshot alone", len(entries))
	}
	loaded, err := LoadCubeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok, err := loaded.QueryLabels([]string{"y", "p"}); err != nil || !ok || n != 2 {
		t.Fatalf("loaded cube answers (%d,%v,%v), want (2,true,nil)", n, ok, err)
	}

	if err := cube.SaveFile(filepath.Join(dir, "missing", "cube.ccube")); err == nil {
		t.Fatal("SaveFile into a missing directory must fail")
	}
	if _, err := LoadCubeFile(filepath.Join(dir, "absent.ccube")); !os.IsNotExist(err) {
		t.Fatalf("LoadCubeFile of a missing file: %v", err)
	}
	// Saving over a directory fails at the rename, after the write: the
	// temporary must be gone.
	blocked := filepath.Join(dir, "blocked")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cube.SaveFile(blocked); err == nil || !strings.Contains(err.Error(), blocked) {
		t.Fatalf("SaveFile over a directory: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("directory holds %d entries after a failed SaveFile, want 2", len(entries))
	}
}

// TestLoadCubeFromParentCommit loads a snapshot written by the commit before
// the algorithm table existed (ccube -synth T=200,D=3,C=4,S=0,seed=1 -alg
// obbuc -minsup 2 -store): the stored algorithm number must still name the
// same engine, and the cells must be the ones that build computes today.
func TestLoadCubeFromParentCommit(t *testing.T) {
	cube, err := LoadCubeFile(filepath.Join("testdata", "parent_obbuc.ccube"))
	if err != nil {
		t.Fatal(err)
	}
	if cube.Algorithm() != AlgOBBUC || cube.Algorithm().String() != "OB-BUC" || cube.MinSup() != 2 {
		t.Fatalf("algorithm %v, minsup %d; want OB-BUC at 2", cube.Algorithm(), cube.MinSup())
	}
	ds, err := OpenDataset("", "T=200,D=3,C=4,S=0,seed=1", "")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Materialize(ds, Options{MinSup: 2, Algorithm: AlgOBBUC})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cubeBytes(t, cube), cubeBytes(t, fresh)) {
		t.Fatalf("the parent's snapshot (%d cells) differs from today's build (%d cells)", cube.NumCells(), fresh.NumCells())
	}
}
