package cubestore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/engine"
	"ccubing/internal/fuzzbound"
	"ccubing/internal/qcdfs"
	"ccubing/internal/sink"
)

// openCopy opens a private copy of a snapshot: Open takes ownership of its
// buffer, and the tests keep using theirs.
func openCopy(raw []byte) (*Store, error) {
	s, _, err := Open(bytes.Clone(raw))
	return s, err
}

// rejectEveryCorruption fails unless Open rejects raw with any one byte
// inverted, every proper prefix of raw, and raw with a byte appended.
func rejectEveryCorruption(t *testing.T, raw []byte) {
	t.Helper()
	if _, err := openCopy(raw); err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		mut := bytes.Clone(raw)
		mut[i] ^= 0xff
		if _, err := openCopy(mut); err == nil {
			t.Fatalf("flipped byte %d of %d accepted", i, len(raw))
		}
		if _, err := openCopy(raw[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", i, len(raw))
		}
	}
	if _, err := openCopy(append(bytes.Clone(raw), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// seal makes a hand-written snapshot body pass Open's outer checks — the
// declared total becomes the real one and a valid checksum is appended — so
// what it lies about is judged by the structural checks behind them.
func seal(body []byte) []byte {
	binary.LittleEndian.PutUint64(body[32:], uint64(len(body)+4))
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// snapshotHeader writes the fixed header (total left for seal to fill in).
func snapshotHeader(nd, flags uint32, ngroups, resRows uint64) []byte {
	b := append([]byte(snapshotMagic), SnapshotVersion)
	b = binary.LittleEndian.AppendUint32(b, nd)
	b = binary.LittleEndian.AppendUint32(b, flags)
	b = binary.LittleEndian.AppendUint64(b, ngroups)
	b = binary.LittleEndian.AppendUint64(b, resRows)
	return binary.LittleEndian.AppendUint64(b, 0)
}

// sizeBombs are well-formed, correctly checksummed snapshots whose header or
// directory declares far more than the bytes behind it: 2^36 cuboid groups,
// 2^60 rows in a group, 2^60 residual rows, 2^28 rows of 256-byte keys (a
// product past 32 bits), and a total length that is not the buffer's.
func sizeBombs() map[string][]byte {
	dirEntry := func(b []byte, mask, rows uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(b, mask), rows)
	}
	wrongTotal := snapshotHeader(3, 0, 0, 0)
	binary.LittleEndian.PutUint64(wrongTotal[32:], uint64(len(wrongTotal))+12)
	wrongTotal = binary.LittleEndian.AppendUint32(wrongTotal, crc32.ChecksumIEEE(wrongTotal))
	return map[string][]byte{
		"groups":        seal(snapshotHeader(40, 0, 1<<36, 0)),
		"rows":          seal(dirEntry(snapshotHeader(3, flagAux, 1, 0), 0b101, 1<<60)),
		"residual rows": seal(snapshotHeader(2, flagAux|flagResidual, 0, 1<<60)),
		"key bytes":     seal(append(dirEntry(snapshotHeader(64, 0, 1, 0), math.MaxUint64, 1<<28), make([]byte, 1<<12)...)),
		"total":         wrongTotal,
		"rows, no flag": seal(snapshotHeader(2, 0, 0, 7)),
	}
}

// TestOpenRejectsSizeBombs: a declared size is bounded by the buffer before
// anything is allocated from it (the fuzzbound property), and rejected.
func TestOpenRejectsSizeBombs(t *testing.T) {
	for name, bomb := range sizeBombs() {
		var err error
		fuzzbound.Check(t, len(bomb), func() { _, err = openCopy(bomb) })
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// randomStore builds a store over a random relation: with or without a
// measure, and with a residual holding rows, an empty one, or none.
func randomStore(t *testing.T, rng *rand.Rand, hasAux bool, residual string) (*Store, []int) {
	t.Helper()
	minsup := int64(1)
	if residual == "rows" {
		minsup = 2 + rng.Int63n(3)
	}
	for {
		cards := make([]int, 2+rng.Intn(3))
		for d := range cards {
			cards[d] = 2 + rng.Intn(6)
		}
		tbl := testTable(t, 100+rng.Intn(300), cards, rng.Float64()*1.5, rng.Int63())
		var aux []float64
		if hasAux {
			aux = auxColumn(tbl)
		}
		res := ComputeResidual(tbl.Cols, aux, minsup, core.MeasureSum)
		if residual == "rows" && res.NumRows() == 0 {
			continue // every distinct tuple cleared the threshold: draw again
		}
		col := &sink.Collector{}
		if err := qcdfs.Engine.Run(tbl, engine.Config{MinSup: minsup, Closed: true}, col); err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(tbl.NumDims(), hasAux)
		for _, c := range col.Cells {
			b.Add(c.Values, c.Count, rng.NormFloat64())
		}
		if residual != "none" {
			if err := b.SetResidual(res); err != nil {
				t.Fatal(err)
			}
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return s, cards
	}
}

// TestOpenedStoreMatchesBuilt is the property the layout has to keep: a store
// opened from its snapshot is the store that was saved. Over random cubes
// (measure or not; residual with rows, empty, absent), an apex-only store and
// a 64-dimension store whose masks set the top bit, the opened store reports
// the same size, answers Query, Select and Aggregate identically, and saves
// to the same bytes.
func TestOpenedStoreMatchesBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	type tc struct {
		name  string
		s     *Store
		cards []int
	}
	var cases []tc
	for _, hasAux := range []bool{false, true} {
		for _, residual := range []string{"rows", "empty", "none"} {
			for i := 0; i < 4; i++ {
				s, cards := randomStore(t, rng, hasAux, residual)
				cases = append(cases, tc{residual, s, cards})
			}
		}
	}
	apex := NewBuilder(3, true)
	apex.Add([]core.Value{core.Star, core.Star, core.Star}, 9, 2.5)
	wide := NewBuilder(core.MaxDims, true)
	vals := make([]core.Value, core.MaxDims)
	for d := range vals {
		vals[d] = core.Star
	}
	wide.Add(vals, 5, 1)
	vals[core.MaxDims-1] = 1
	wide.Add(vals, 3, 2) // fixes dimension 63: the mask's top bit
	vals[0] = 2
	wide.Add(vals, 2, 3)
	wideCards := make([]int, core.MaxDims)
	for d := range wideCards {
		wideCards[d] = 3
	}
	for _, c := range []struct {
		name  string
		b     *Builder
		cards []int
	}{{"apex", apex, []int{2, 2, 2}}, {"wide", wide, wideCards}} {
		s, err := c.b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{c.name, s, c.cards})
	}

	for _, c := range cases {
		built := c.s
		raw := storeBytes(t, built)
		opened, err := openCopy(raw)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again := storeBytes(t, opened); !bytes.Equal(raw, again) {
			t.Fatalf("%s: Save → Open → Save not byte-identical (%d vs %d bytes)", c.name, len(raw), len(again))
		}
		if opened.NumCells() != built.NumCells() || opened.Bytes() != built.Bytes() ||
			opened.NumCuboids() != built.NumCuboids() || opened.HasAux() != built.HasAux() ||
			opened.HasResidual() != built.HasResidual() || opened.ResidualRows() != built.ResidualRows() {
			t.Fatalf("%s: opened store reports %d cells / %d bytes / %d residual rows, built %d / %d / %d", c.name,
				opened.NumCells(), opened.Bytes(), opened.ResidualRows(), built.NumCells(), built.Bytes(), built.ResidualRows())
		}
		nd := built.NumDims()
		for i := 0; i < 60; i++ {
			q := make([]core.Value, nd)
			for d := range q {
				q[d] = core.Star
				if rng.Intn(2) == 0 {
					q[d] = core.Value(rng.Intn(c.cards[d]))
				}
			}
			c1, ok1 := built.Lookup(q)
			c2, ok2 := opened.Lookup(q)
			if ok1 != ok2 || !reflect.DeepEqual(c1, c2) {
				t.Fatalf("%s: Lookup(%v) = (%v,%v) built, (%v,%v) opened", c.name, q, c1, ok1, c2, ok2)
			}
			n1, _ := built.Query(q)
			if n2, _ := opened.Query(q); n1 != n2 {
				t.Fatalf("%s: Query(%v) = %d built, %d opened", c.name, q, n1, n2)
			}
			spec := randomSpec(rng, c.cards)
			selected := func(s *Store) (cells []core.Cell) {
				s.Select(spec, func(c core.Cell) bool { cells = append(cells, c); return true })
				return cells
			}
			if a, b := selected(built), selected(opened); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: Select(%v) differs: %d cells built, %d opened", c.name, spec.Preds, len(a), len(b))
			}
			opt := AggOptions{GroupBy: drawGroupBy(rng, nd, nil, true), TopK: rng.Intn(4), By: AggBy(rng.Intn(2))}
			if a, b := built.Aggregate(spec, opt), opened.Aggregate(spec, opt); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: Aggregate(%v, %+v) differs:\nbuilt  %v\nopened %v", c.name, spec.Preds, opt, a, b)
			}
		}
	}
}

// TestOpenAliasesBuffer pins what the layout is for: opening allocates the
// group and index bookkeeping, not the payload.
func TestOpenAliasesBuffer(t *testing.T) {
	tbl := testTable(t, 20000, []int{30, 20, 10, 10}, 0.5, 3)
	raw := storeBytes(t, buildWithResidual(t, tbl, 2, core.MeasureSum))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, _, err := Open(raw)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(raw))/10 {
		t.Fatalf("opening a %d-byte snapshot allocated %d bytes", len(raw), got)
	}
	if int64(len(raw)) < s.Bytes() {
		t.Fatalf("store reports %d payload bytes out of a %d-byte snapshot", s.Bytes(), len(raw))
	}
}

// TestOpenMisalignedBuffer opens a snapshot from a buffer whose base is
// deliberately off by one. The casts need an aligned base, so Open must move
// the bytes once; under -race (checkptr on) a cast of the misaligned buffer
// would also be caught by the runtime.
func TestOpenMisalignedBuffer(t *testing.T) {
	tbl := testTable(t, 300, []int{5, 4, 3}, 0.8, 19)
	built := buildWithResidual(t, tbl, 3, core.MeasureAvg)
	raw := storeBytes(t, built)
	// A []uint64-backed buffer is 8-aligned whatever the allocator does.
	backing := toImage(make([]uint64, len(raw)/8+2))
	for _, shift := range []int{1, 4, 7} {
		off := backing[shift : shift+len(raw)]
		copy(off, raw)
		s, _, err := Open(off)
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		clear(off) // the store must not be looking at the misaligned bytes
		if got := storeBytes(t, s); !bytes.Equal(got, raw) {
			t.Fatalf("shift %d: store opened from a misaligned buffer saves differently", shift)
		}
		for i := 0; i < 50; i++ {
			q := randomQuery(rand.New(rand.NewSource(int64(i))), tbl)
			n1, ok1 := built.Query(q)
			if n2, ok2 := s.Query(q); n1 != n2 || ok1 != ok2 {
				t.Fatalf("shift %d: Query(%v) = (%d,%v), want (%d,%v)", shift, q, n2, ok2, n1, ok1)
			}
		}
	}
}

// TestSwapWords covers the path no little-endian CI box takes: swapping a
// section once turns its little-endian words into what a big-endian decoder
// reads, swapping twice is the identity.
func TestSwapWords(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	orig := make([]byte, 8*37)
	rng.Read(orig)
	for _, size := range []int{4, 8} {
		b := bytes.Clone(orig)
		swapWords(b, size)
		for off := 0; off < len(b); off += size {
			var le, be uint64
			if size == 4 {
				le, be = uint64(binary.LittleEndian.Uint32(b[off:])), uint64(binary.BigEndian.Uint32(orig[off:]))
			} else {
				le, be = binary.LittleEndian.Uint64(b[off:]), binary.BigEndian.Uint64(orig[off:])
			}
			if le != be {
				t.Fatalf("size %d, word at %d: swapped reads %#x little-endian, original %#x big-endian", size, off, le, be)
			}
		}
		swapWords(b, size)
		if !bytes.Equal(b, orig) {
			t.Fatalf("size %d: swapping twice is not the identity", size)
		}
	}
}

// TestForeignEndianPath runs the big-endian branches on whatever host this
// is by claiming its byte order is not the file's. What comes out of Save is
// then the wrong-endian image — the point is only that Save and Open swap the
// same sections (every fixed-width one, across the chunk buffer's boundary,
// and neither keys nor header): the pair must still round-trip to a store
// that saves, byte order restored, exactly like the original.
func TestForeignEndianPath(t *testing.T) {
	tbl := testTable(t, 3000, []int{9, 8, 7}, 0.6, 5)
	built := buildWithResidual(t, tbl, 2, core.MeasureSum)
	native := storeBytes(t, built)

	bigEndian = !bigEndian
	foreign := storeBytes(t, built)
	opened, err := openCopy(foreign)
	bigEndian = !bigEndian
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(foreign, native) || len(foreign) != len(native) {
		t.Fatalf("foreign-endian image: %d bytes, native %d, equal %v", len(foreign), len(native), bytes.Equal(foreign, native))
	}
	if got := storeBytes(t, opened); !bytes.Equal(got, native) {
		t.Fatal("a store saved and opened through the swapping branches differs from the original")
	}
}
