// Snapshot persistence: Open assembles Store and group values that are
// immutable once returned.

package cubestore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"
	"unsafe"

	"ccubing/internal/core"
)

// Snapshot format: the store's memory image. Every integer is fixed-width
// little-endian, every section starts 8-byte aligned and is zero-padded to
// the next multiple of 8, so on a little-endian host each section IS the
// slice it becomes and Open aliases it instead of decoding it.
//
//	 0  magic    "CCSTOR\x00" + version byte
//	 8  nd       u32 dimensions
//	12  flags    u32: bit 0 cells carry a measure, bit 1 a residual follows
//	16  ngroups  u64 cuboid groups
//	24  resrows  u64 residual rows (0 without a residual; 0 rows with one is
//	             valid: nothing fell below the threshold)
//	32  total    u64 length of the whole snapshot, checksum included
//	40  directory, ngroups x { mask u64, rows u64 }, masks ascending
//	per group, in directory order:
//	  keys   rows*width bytes (width = 4 * popcount(mask)), strictly ascending
//	  counts rows x i64
//	  aux    rows x f64, only with the measure flag
//	residual, only with the residual flag, column-major like Residual:
//	  nd columns of resrows x i32 (row order: packed keys strictly ascending)
//	  counts resrows x i64 (each >= 1)
//	  aux    resrows x f64, only with the measure flag
//	crc32    IEEE checksum of everything above (u32)
//
// A store built without a residual has the flag clear and loads without one:
// its iceberg aggregates are lower bounds. Groups and rows are written in the
// store's canonical order, so Save is deterministic: Save → Open → Save
// reproduces identical bytes.
//
// Mapping the file is the step this layout prepares and does not take: a
// mapped file must be one the server owns (written to a temp name and
// renamed), because overwriting a mapped path in place is a SIGBUS.

const snapshotMagic = "CCSTOR\x00"

// SnapshotVersion is the one snapshot format version Save writes and Open
// accepts; files of any other version are rejected (git history is the
// archive of the older layouts; rebuild their snapshots from data).
const SnapshotVersion = 4

const (
	snapshotHeaderLen = 40
	snapshotDirEntry  = 16
	flagAux           = 1 << 0
	flagResidual      = 1 << 1
)

// bigEndian reports a host whose integers are not laid out like the file's:
// Open swaps the fixed-width sections in place, Save through a chunk buffer.
var bigEndian = binary.NativeEndian.Uint16([]byte{1, 0}) != 1

// word is an element type of a fixed-width section.
type word interface {
	int32 | int64 | uint64 | float64
}

// wordSize returns the width of T in bytes.
func wordSize[T word]() int {
	var zero T
	return binary.Size(zero)
}

// The three helpers below are the only unsafe code of the package: they
// reinterpret a section's bytes as the slice it is the image of and back.

// aligned returns data itself when its base is 8-byte aligned — every buffer
// the facade allocates is — and one aligned copy of it otherwise.
func aligned(data []byte) []byte {
	if uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0 {
		return data
	}
	out := toImage(make([]uint64, (len(data)+7)/8))[:len(data)]
	copy(out, data)
	return out
}

// fromImage turns a section (8-byte aligned, a whole number of words) into
// the slice it is the image of, in place. Capacity equals length, so nothing
// appended to the result can run into the next section.
func fromImage[T word](b []byte) []T {
	if bigEndian {
		swapWords(b, wordSize[T]())
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/wordSize[T]())
}

// toImage is the inverse view: the bytes of s in host order.
func toImage[T word](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*wordSize[T]())
}

// swapWords reverses the bytes of every size-byte word of b.
func swapWords(b []byte, size int) {
	for ; len(b) >= size; b = b[size:] {
		slices.Reverse(b[:size])
	}
}

// imageWriter writes sections: it keeps the running checksum and offset, pads
// to alignment and remembers the first error. Without a destination it only
// counts, which is how Save learns the total its header declares.
type imageWriter struct {
	w   *bufio.Writer
	crc uint32
	off int64
	err error
}

func (iw *imageWriter) write(p []byte) {
	iw.off += int64(len(p))
	if iw.w == nil || iw.err != nil {
		return
	}
	iw.crc = crc32.Update(iw.crc, crc32.IEEETable, p)
	_, iw.err = iw.w.Write(p)
}

// zeroPad is where section padding comes from.
var zeroPad [8]byte

// section writes a byte section and its padding.
func (iw *imageWriter) section(p []byte) {
	iw.write(p)
	iw.write(zeroPad[:-iw.off&7])
}

// writeWords writes the section s is the image of.
func writeWords[T word](iw *imageWriter, s []T) {
	p := toImage(s)
	if !bigEndian || iw.w == nil {
		iw.section(p)
		return
	}
	var chunk [4096]byte
	for len(p) > 0 {
		n := copy(chunk[:], p)
		swapWords(chunk[:n], wordSize[T]())
		iw.write(chunk[:n])
		p = p[n:]
	}
	iw.section(nil)
}

// writeSections writes everything between the directory and the checksum.
func (s *Store) writeSections(iw *imageWriter) {
	for _, g := range s.groups {
		iw.section(g.keys)
		writeWords(iw, g.counts)
		if s.hasAux {
			writeWords(iw, g.aux)
		}
	}
	if s.res == nil {
		return
	}
	for _, col := range s.res.cols {
		writeWords(iw, col)
	}
	writeWords(iw, s.res.counts)
	if s.hasAux {
		aux := s.res.aux
		if len(aux) != len(s.res.counts) { // a measure-less residual on a measure store
			aux = make([]float64, len(s.res.counts))
		}
		writeWords(iw, aux)
	}
}

// Save writes the store's snapshot to w.
func (s *Store) Save(w io.Writer) error {
	var sizer imageWriter
	s.writeSections(&sizer)
	var flags uint32
	if s.hasAux {
		flags |= flagAux
	}
	if s.res != nil {
		flags |= flagResidual
	}
	le := binary.LittleEndian
	headLen := snapshotHeaderLen + snapshotDirEntry*len(s.groups)
	head := make([]byte, 0, headLen)
	head = append(append(head, snapshotMagic...), SnapshotVersion)
	head = le.AppendUint32(head, uint32(s.nd))
	head = le.AppendUint32(head, flags)
	head = le.AppendUint64(head, uint64(len(s.groups)))
	head = le.AppendUint64(head, uint64(s.ResidualRows()))
	head = le.AppendUint64(head, uint64(headLen)+uint64(sizer.off)+4)
	for _, g := range s.groups {
		head = le.AppendUint64(head, uint64(g.mask))
		head = le.AppendUint64(head, uint64(g.rows()))
	}
	iw := &imageWriter{w: bufio.NewWriter(w)}
	iw.write(head)
	s.writeSections(iw)
	iw.write(le.AppendUint32(nil, iw.crc))
	if iw.err == nil {
		iw.err = iw.w.Flush()
	}
	if iw.err != nil {
		return fmt.Errorf("cubestore: save: %w", iw.err)
	}
	return nil
}

// imageReader hands out the sections of a snapshot in order, bounds-checking
// each against the buffer and its padding against zero. After the first
// failure it hands out empty sections and keeps the error.
type imageReader struct {
	data []byte
	off  int
	err  error
}

// section returns the next n bytes and steps over their padding.
func (ir *imageReader) section(n uint64) []byte {
	if ir.err == nil && n > uint64(len(ir.data)-ir.off) {
		ir.err = fmt.Errorf("section of %d bytes at offset %d exceeds the snapshot", n, ir.off)
	}
	if ir.err != nil {
		return nil
	}
	end := ir.off + int(n)
	sec := ir.data[ir.off:end:end]
	for ir.off = end; ir.off%8 != 0; ir.off++ {
		if ir.off >= len(ir.data) || ir.data[ir.off] != 0 {
			ir.err = fmt.Errorf("nonzero padding at offset %d", ir.off)
			return nil
		}
	}
	return sec
}

// readWords returns the next section as the n-element slice it is the image
// of. n is bounded by the caller (rows <= len(data)/8), so the product is exact.
func readWords[T word](ir *imageReader, n uint64) []T {
	return fromImage[T](ir.section(n * uint64(wordSize[T]())))
}

// Open turns a snapshot written by Save into a store that aliases data: the
// store's keys, counts, measures and residual columns are sections of the
// buffer, which Open takes ownership of (and, on a big-endian host, rewrites
// into host order). Magic, version, declared length and checksum are checked
// once over the buffer, then every section's bounds and the store's
// structural invariants; nothing is allocated on the strength of a declared
// size alone, every count is bounded by len(data) first. The duration is the
// part of the call spent building the cuboid-lattice index; the rest of it
// is verification.
func Open(data []byte) (*Store, time.Duration, error) {
	s, err := open(data)
	if err != nil {
		return nil, 0, fmt.Errorf("cubestore: open: %w", err)
	}
	t0 := time.Now()
	s.buildIndex()
	return s, time.Since(t0), nil
}

func open(data []byte) (*Store, error) {
	if len(data) < len(snapshotMagic)+1 {
		return nil, io.ErrUnexpectedEOF
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("bad magic %q", data[:len(snapshotMagic)])
	}
	if version := data[len(snapshotMagic)]; version != SnapshotVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d (want %d)", version, SnapshotVersion)
	}
	if len(data) < snapshotHeaderLen+4 {
		return nil, io.ErrUnexpectedEOF
	}
	if total := binary.LittleEndian.Uint64(data[32:]); total != uint64(len(data)) {
		return nil, fmt.Errorf("snapshot declares %d bytes, have %d", total, len(data))
	}
	if got, want := binary.LittleEndian.Uint32(data[len(data)-4:]), crc32.ChecksumIEEE(data[:len(data)-4]); got != want {
		return nil, fmt.Errorf("checksum mismatch (%#x != %#x)", got, want)
	}
	data = aligned(data)

	nd64 := binary.LittleEndian.Uint32(data[8:])
	if nd64 == 0 || nd64 > core.MaxDims {
		return nil, fmt.Errorf("%d dimensions out of range", nd64)
	}
	nd := int(nd64)
	flags := binary.LittleEndian.Uint32(data[12:])
	if flags&^(flagAux|flagResidual) != 0 {
		return nil, fmt.Errorf("unknown flags %#x", flags)
	}
	hasAux := flags&flagAux != 0
	ngroups := binary.LittleEndian.Uint64(data[16:])
	if ngroups > uint64(len(data)-snapshotHeaderLen)/snapshotDirEntry {
		return nil, fmt.Errorf("%d cuboid groups exceed the snapshot", ngroups)
	}
	// Every row costs at least its 8-byte count, which bounds each declared
	// row count by the buffer before anything is sized from it.
	maxRows := uint64(len(data)) / 8

	// One slab of groups, sized by the directory that is actually there.
	dir := data[snapshotHeaderLen : snapshotHeaderLen+int(ngroups)*snapshotDirEntry]
	slab := make([]group, ngroups)
	s := &Store{
		nd:     nd,
		hasAux: hasAux,
		groups: make([]*group, ngroups),
		byMask: make(map[core.Mask]*group, ngroups),
	}
	ir := &imageReader{data: data, off: snapshotHeaderLen + len(dir)}
	for gi := range slab {
		g := &slab[gi]
		mask := binary.LittleEndian.Uint64(dir[gi*snapshotDirEntry:])
		rows := binary.LittleEndian.Uint64(dir[gi*snapshotDirEntry+8:])
		if nd < core.MaxDims && mask >= 1<<uint(nd) {
			return nil, fmt.Errorf("group %d: mask %#x exceeds %d dimensions", gi, mask, nd)
		}
		// Unsigned comparison: dimension 63 sets the top bit, which a signed
		// compare would misread as negative.
		if gi > 0 && mask <= uint64(slab[gi-1].mask) {
			return nil, fmt.Errorf("group masks out of order")
		}
		if rows > maxRows {
			return nil, fmt.Errorf("group %d: %d rows exceed the snapshot", gi, rows)
		}
		g.mask = core.Mask(mask)
		g.dims = g.mask.Dims(make([]int, 0, g.mask.OnesCount()))
		g.width = core.ValueWidth * len(g.dims)
		g.keys = ir.section(rows * uint64(g.width))
		g.counts = readWords[int64](ir, rows)
		if hasAux {
			g.aux = readWords[float64](ir, rows)
		}
		if ir.err != nil {
			return nil, fmt.Errorf("group %d: %w", gi, ir.err)
		}
		// Binary search depends on strictly ascending keys; Builder.Build
		// guarantees it on the write side, so non-sorted input is corruption.
		if g.width == 0 && rows > 1 {
			return nil, fmt.Errorf("apex group has %d rows", rows)
		}
		for i := 1; i < int(rows); i++ {
			if bytes.Compare(g.row(i-1), g.row(i)) >= 0 {
				return nil, fmt.Errorf("group %d: keys not strictly sorted at row %d", gi, i)
			}
		}
		s.groups[gi] = g
		s.byMask[g.mask] = g
		s.cells += int64(rows)
	}

	resRows := binary.LittleEndian.Uint64(data[24:])
	if flags&flagResidual != 0 {
		if resRows > maxRows {
			return nil, fmt.Errorf("residual: %d rows exceed the snapshot", resRows)
		}
		var err error
		if s.res, err = openResidual(ir, nd, hasAux, resRows); err != nil {
			return nil, fmt.Errorf("residual: %w", err)
		}
	} else if resRows != 0 {
		return nil, fmt.Errorf("%d residual rows declared without a residual", resRows)
	}
	if ir.off != len(data)-4 {
		return nil, fmt.Errorf("sections end at offset %d, checksum sits at %d", ir.off, len(data)-4)
	}
	return s, nil
}

// openResidual aliases the residual section, validating what group loading
// validates: bounds, strictly ascending keys, positive counts.
func openResidual(ir *imageReader, nd int, hasAux bool, rows uint64) (*Residual, error) {
	res := newResidual(nd, hasAux, 0)
	for d := range res.cols {
		res.cols[d] = readWords[core.Value](ir, rows)
	}
	res.counts = readWords[int64](ir, rows)
	if hasAux {
		res.aux = readWords[float64](ir, rows)
	}
	if ir.err != nil {
		return nil, ir.err
	}
	for i, c := range res.counts {
		if c < 1 {
			return nil, fmt.Errorf("row %d has count %d", i, c)
		}
		if i > 0 && compareRows(res, i-1, res, i) >= 0 {
			return nil, fmt.Errorf("keys not strictly sorted at row %d", i)
		}
	}
	return res, nil
}
