// Snapshot persistence: Load is a freeze-file — it assembles Store and group
// values that are immutable once returned.
//
//ccubing:mutates Store, group

package cubestore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"ccubing/internal/core"
)

// Snapshot format (all integers uvarint unless noted, little-endian):
//
//	magic   "CCSTOR\x00" + version byte (8 bytes raw)
//	nd      dimensions
//	hasAux  1 byte (0/1)
//	ngroups cuboid groups, ascending mask
//	per group:
//	  mask   uvarint
//	  rows   uvarint
//	  keys   rows*width raw bytes (width = 4 * popcount(mask))
//	  counts rows uvarints
//	  aux    rows float64 bit patterns (8 bytes LE each), only when hasAux
//	residual section:
//	  present 1 byte (0/1); 0 ends the section — a store built without a
//	         residual, whose iceberg aggregates are lower bounds
//	  rows   uvarint (0 is valid: nothing fell below the threshold)
//	  keys   rows*nd*4 raw bytes (full-width packed keys, strictly sorted)
//	  counts rows uvarints (each >= 1)
//	  aux    rows float64 bit patterns (8 bytes LE each), only when hasAux
//	crc32   IEEE checksum of everything above (4 bytes LE, raw)
//
// Groups and rows are written in the store's canonical order (masks
// ascending, keys lexicographic), so Save is deterministic: Save → Load →
// Save reproduces identical bytes, with or without a residual.

const snapshotMagic = "CCSTOR\x00"

// SnapshotVersion is the one snapshot format version Save writes and Load
// accepts; files of any other version are rejected (git history is the
// archive of the older layouts).
const SnapshotVersion = 3

// maxSnapshotRows bounds one cuboid group's declared row count during Load:
// far above any real cube, and small enough that the count fits int (and
// row counts times ValueWidth fit int64) on every platform.
const maxSnapshotRows = 1<<31 - 1

// maxGroupPrealloc caps how many cuboid groups Load pre-allocates from the
// declared count before any of them has been read.
const maxGroupPrealloc = 1 << 12

// ReadAllChunked reads exactly n bytes, growing the buffer as data actually
// arrives so a corrupt length prefix fails on EOF instead of pre-allocating
// the declared size. Shared with the facade's cube-snapshot loader.
func ReadAllChunked(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		step := min(n-len(buf), chunk)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// crcWriter tees writes through a CRC32 accumulator.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

// Save writes the store's snapshot to w.
func (s *Store) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write([]byte(snapshotMagic)); err != nil {
		return fmt.Errorf("cubestore: save: %w", err)
	}
	if _, err := cw.Write([]byte{SnapshotVersion}); err != nil {
		return fmt.Errorf("cubestore: save: %w", err)
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := cw.Write(scratch[:n])
		return err
	}
	if err := putUvarint(uint64(s.nd)); err != nil {
		return fmt.Errorf("cubestore: save: %w", err)
	}
	hasAux := byte(0)
	if s.hasAux {
		hasAux = 1
	}
	if _, err := cw.Write([]byte{hasAux}); err != nil {
		return fmt.Errorf("cubestore: save: %w", err)
	}
	if err := putUvarint(uint64(len(s.groups))); err != nil {
		return fmt.Errorf("cubestore: save: %w", err)
	}
	for _, g := range s.groups {
		if err := putUvarint(uint64(g.mask)); err != nil {
			return fmt.Errorf("cubestore: save: %w", err)
		}
		if err := putUvarint(uint64(g.rows())); err != nil {
			return fmt.Errorf("cubestore: save: %w", err)
		}
		if _, err := cw.Write(g.keys); err != nil {
			return fmt.Errorf("cubestore: save: %w", err)
		}
		for _, c := range g.counts {
			if err := putUvarint(uint64(c)); err != nil {
				return fmt.Errorf("cubestore: save: %w", err)
			}
		}
		if s.hasAux {
			for _, a := range g.aux {
				binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(a))
				if _, err := cw.Write(scratch[:8]); err != nil {
					return fmt.Errorf("cubestore: save: %w", err)
				}
			}
		}
	}
	hasRes := byte(0)
	if s.res != nil {
		hasRes = 1
	}
	if _, err := cw.Write([]byte{hasRes}); err != nil {
		return fmt.Errorf("cubestore: save: residual: %w", err)
	}
	if s.res != nil {
		if err := putUvarint(uint64(s.res.NumRows())); err != nil {
			return fmt.Errorf("cubestore: save: residual: %w", err)
		}
		if err := s.res.writeKeys(cw); err != nil {
			return fmt.Errorf("cubestore: save: residual: %w", err)
		}
		for _, c := range s.res.counts {
			if err := putUvarint(uint64(c)); err != nil {
				return fmt.Errorf("cubestore: save: residual: %w", err)
			}
		}
		if s.hasAux {
			for i := range s.res.counts {
				var a float64
				if s.res.aux != nil {
					a = s.res.aux[i]
				}
				binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(a))
				if _, err := cw.Write(scratch[:8]); err != nil {
					return fmt.Errorf("cubestore: save: residual: %w", err)
				}
			}
		}
	}
	binary.LittleEndian.PutUint32(scratch[:4], cw.crc)
	if _, err := bw.Write(scratch[:4]); err != nil {
		return fmt.Errorf("cubestore: save: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("cubestore: save: %w", err)
	}
	return nil
}

// crcReader tees reads through a CRC32 accumulator.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Load reads a snapshot written by Save, validating the header, structural
// invariants and the trailing checksum.
func Load(r io.Reader) (*Store, error) {
	return load(&crcReader{r: bufio.NewReader(r)})
}

func load(cr *crcReader) (*Store, error) {
	rd := &byteReader{r: cr}
	var head [8]byte
	if _, err := io.ReadFull(rd, head[:]); err != nil {
		return nil, fmt.Errorf("cubestore: load: %w", err)
	}
	if string(head[:7]) != snapshotMagic {
		return nil, fmt.Errorf("cubestore: load: bad magic %q", head[:7])
	}
	if version := head[7]; version != SnapshotVersion {
		return nil, fmt.Errorf("cubestore: load: unsupported snapshot version %d (want %d)", version, SnapshotVersion)
	}
	nd64, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, fmt.Errorf("cubestore: load: %w", err)
	}
	if nd64 == 0 || nd64 > uint64(core.MaxDims) {
		return nil, fmt.Errorf("cubestore: load: %d dimensions out of range", nd64)
	}
	nd := int(nd64)
	auxByte, err := rd.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("cubestore: load: %w", err)
	}
	if auxByte > 1 {
		return nil, fmt.Errorf("cubestore: load: bad aux flag %d", auxByte)
	}
	hasAux := auxByte == 1
	ngroups, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, fmt.Errorf("cubestore: load: %w", err)
	}
	if ngroups > 1<<uint(min(nd, 62)) {
		return nil, fmt.Errorf("cubestore: load: %d cuboid groups exceed 2^%d", ngroups, nd)
	}
	// The declared group count only sizes a hint: 2^nd is a legal count for
	// large nd, so pre-allocating it verbatim would let a 20-byte file demand
	// terabytes. Groups beyond the hint grow as they actually arrive.
	hint := int(min(ngroups, maxGroupPrealloc))
	s := &Store{
		nd:     nd,
		hasAux: hasAux,
		groups: make([]*group, 0, hint),
		byMask: make(map[core.Mask]*group, hint),
	}
	var prevMask uint64
	for gi := uint64(0); gi < ngroups; gi++ {
		mask64, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, fmt.Errorf("cubestore: load: group %d: %w", gi, err)
		}
		if nd < core.MaxDims && mask64 >= 1<<uint(nd) {
			return nil, fmt.Errorf("cubestore: load: group %d: mask %#x exceeds %d dimensions", gi, mask64, nd)
		}
		// Unsigned comparison: dimension 63 sets the top bit, which a signed
		// compare would misread as negative.
		if gi > 0 && mask64 <= prevMask {
			return nil, fmt.Errorf("cubestore: load: group masks out of order")
		}
		prevMask = mask64
		rows64, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, fmt.Errorf("cubestore: load: group %d: %w", gi, err)
		}
		// Bound rows before allocating: a corrupt or hostile varint must
		// yield a load error, not a makeslice panic or a giant allocation.
		if rows64 > maxSnapshotRows {
			return nil, fmt.Errorf("cubestore: load: group %d: implausible row count %d", gi, rows64)
		}
		rows := int(rows64)
		g := &group{mask: core.Mask(mask64)}
		g.dims = g.mask.Dims(nil)
		g.width = core.ValueWidth * len(g.dims)
		// rows*width computed in int64: on 32-bit platforms the product can
		// exceed int even though rows passed the bound above.
		keysLen := int64(rows64) * int64(g.width)
		if keysLen > int64(^uint(0)>>1) {
			return nil, fmt.Errorf("cubestore: load: group %d: %d key bytes exceed this platform", gi, keysLen)
		}
		if g.keys, err = ReadAllChunked(rd, int(keysLen)); err != nil {
			return nil, fmt.Errorf("cubestore: load: group %d keys: %w", gi, err)
		}
		// Binary search depends on strictly ascending keys; Builder.Build
		// guarantees it on the write side, so non-sorted input is corruption.
		for i := 1; i < rows && g.width > 0; i++ {
			if bytes.Compare(g.row(i-1), g.row(i)) >= 0 {
				return nil, fmt.Errorf("cubestore: load: group %d: keys not strictly sorted at row %d", gi, i)
			}
		}
		if g.width == 0 && rows > 1 {
			return nil, fmt.Errorf("cubestore: load: apex group has %d rows", rows)
		}
		g.counts = make([]int64, rows)
		for i := range g.counts {
			c, err := binary.ReadUvarint(rd)
			if err != nil {
				return nil, fmt.Errorf("cubestore: load: group %d counts: %w", gi, err)
			}
			g.counts[i] = int64(c)
		}
		if hasAux {
			g.aux = make([]float64, rows)
			var buf [8]byte
			for i := range g.aux {
				if _, err := io.ReadFull(rd, buf[:]); err != nil {
					return nil, fmt.Errorf("cubestore: load: group %d aux: %w", gi, err)
				}
				g.aux[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
			}
		}
		s.groups = append(s.groups, g)
		s.byMask[g.mask] = g
		s.cells += int64(rows)
	}
	if s.res, err = loadResidual(rd, nd, hasAux); err != nil {
		return nil, err
	}
	want := cr.crc
	var tail [4]byte
	if _, err := io.ReadFull(rd, tail[:]); err != nil {
		return nil, fmt.Errorf("cubestore: load: checksum: %w", err)
	}
	// The checksum bytes themselves were folded into cr.crc by the read; the
	// value captured before reading them is the one to compare.
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("cubestore: load: checksum mismatch (%#x != %#x)", got, want)
	}
	s.buildIndex()
	return s, nil
}

// loadResidual parses the residual section (nil when the presence byte says
// the store has none), validating the same structural invariants group
// loading enforces: bounded row counts, bounds checked before allocation,
// strictly sorted keys, positive counts.
func loadResidual(rd *byteReader, nd int, hasAux bool) (*Residual, error) {
	present, err := rd.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("cubestore: load: residual: %w", err)
	}
	if present > 1 {
		return nil, fmt.Errorf("cubestore: load: bad residual flag %d", present)
	}
	if present == 0 {
		return nil, nil
	}
	rows64, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, fmt.Errorf("cubestore: load: residual: %w", err)
	}
	if rows64 > maxSnapshotRows {
		return nil, fmt.Errorf("cubestore: load: residual: implausible row count %d", rows64)
	}
	rows := int(rows64)
	res := newResidual(nd, hasAux, 0)
	if keysLen := int64(rows64) * int64(nd) * core.ValueWidth; keysLen > int64(^uint(0)>>1) {
		return nil, fmt.Errorf("cubestore: load: residual: %d key bytes exceed this platform", keysLen)
	}
	if err := res.readKeys(rd, rows); err != nil {
		return nil, fmt.Errorf("cubestore: load: residual keys: %w", err)
	}
	res.counts = make([]int64, rows)
	for i := range res.counts {
		c, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, fmt.Errorf("cubestore: load: residual counts: %w", err)
		}
		if c == 0 {
			return nil, fmt.Errorf("cubestore: load: residual row %d has count 0", i)
		}
		res.counts[i] = int64(c)
	}
	if hasAux {
		res.aux = make([]float64, rows)
		var buf [8]byte
		for i := range res.aux {
			if _, err := io.ReadFull(rd, buf[:]); err != nil {
				return nil, fmt.Errorf("cubestore: load: residual aux: %w", err)
			}
			res.aux[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		}
	}
	return res, nil
}

// byteReader adds the io.ByteReader binary.ReadUvarint needs on top of a
// plain reader without buffering ahead (which would desync the CRC tee).
type byteReader struct {
	r   io.Reader
	buf [1]byte
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.buf[:]); err != nil {
		return 0, err
	}
	return b.buf[0], nil
}
