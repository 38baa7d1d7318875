// Partition framing: Split and Merge assemble Store values that are
// immutable once returned, and the frame decoder rebuilds them via Load.
//
//ccubing:mutates Store, group

package cubestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"ccubing/internal/core"
)

// This file makes the leading-dimension partition a transport unit. A store
// is split into one sub-store per shard owner (cells fixing the partition
// dimension, routed by an owner function) plus a residual sub-store (cells
// with a wildcard on the dimension, which aggregate tuples of every shard).
// Each sub-store is framed with a CRC-checked header and the existing
// snapshot encoding as payload, so a shard worker can ship its closed cells
// over a connection and a router can reassemble the exact original store.
//
// The split is lossless and canonical: Split → Encode → Decode → Merge
// yields a store whose Save bytes are identical to the original's, because
// every sub-store and the merged store use the same canonical ordering
// (masks ascending, packed keys lexicographic) as Build.

// Partition frame format (integers uvarint unless noted, little-endian):
//
//	magic   "CCPART\x00" + version byte (8 bytes raw)
//	dim     partition dimension
//	index   shard index (0 for the residual frame)
//	count   total shard count
//	flags   1 byte: bit0 = residual frame (cells wildcard on dim)
//	gen     snapshot generation the frame was cut from
//	paylen  payload length in bytes
//	crc32   IEEE checksum of everything above (4 bytes LE, raw)
//	payload paylen bytes: a Store snapshot (self-checksummed "CCSTOR"; the
//	        snapshot's own version byte governs whether an iceberg-residual
//	        section rides along)
const partitionMagic = "CCPART\x00"

// PartitionVersion is the current partition frame format version.
const PartitionVersion = 1

const flagResidual = 1

// maxPartitionPayload bounds one frame's declared payload length so a
// corrupt varint fails cleanly instead of attempting a giant read.
const maxPartitionPayload = 1 << 40

// PartitionHeader describes one partition frame.
type PartitionHeader struct {
	Dim        int    // partition dimension
	Index      int    // shard index in [0, Count); 0 and unused when Residual
	Count      int    // total shard count of the split
	Residual   bool   // frame holds the cells with a wildcard on Dim
	Generation uint64 // snapshot generation the frame was cut from
}

// Partition is one shard's worth of closed cells: a self-contained store
// holding exactly the cells of the original that fix the partition dimension
// to a value this shard owns (or, for the residual frame, the cells with a
// wildcard on that dimension).
type Partition struct {
	Header PartitionHeader
	Store  *Store
}

// PartitionSet is a complete split of one store: Count owner partitions plus
// the residual partition, in that order.
type PartitionSet struct {
	Dim        int
	Count      int
	Generation uint64
	Parts      []*Partition // len Count+1; Parts[Count] is the residual
}

// Split partitions the store's cells on dim across n owners. Cells fixing
// dim are routed by owner(value), which must return an index in [0, n);
// cells with a wildcard on dim go to the residual partition. Every cell of s
// lands in exactly one partition, so Merge on the result reproduces s
// byte-identically.
func Split(s *Store, dim, n int, owner func(core.Value) int, generation uint64) (*PartitionSet, error) {
	if dim < 0 || dim >= s.nd {
		return nil, fmt.Errorf("cubestore: split: dimension %d out of range (store has %d)", dim, s.nd)
	}
	if n < 1 {
		return nil, fmt.Errorf("cubestore: split: need at least 1 owner, got %d", n)
	}
	builders := make([]*Builder, n+1)
	for i := range builders {
		builders[i] = NewBuilder(s.nd, s.hasAux)
	}
	var werr error
	s.Walk(func(c core.Cell) bool {
		b := builders[n]
		if v := c.Values[dim]; v != core.Star {
			o := owner(v)
			if o < 0 || o >= n {
				werr = fmt.Errorf("cubestore: split: owner(%d) = %d out of range [0, %d)", v, o, n)
				return false
			}
			b = builders[o]
		}
		b.Add(c.Values, c.Count, c.Aux)
		return true
	})
	if werr != nil {
		return nil, werr
	}
	// The iceberg residual (sub-threshold base cells — distinct from this
	// file's wildcard-frame "residual") splits cleanly too: every row fixes
	// all dimensions, so it belongs to exactly one owner. Rows keep their
	// sorted order (a subsequence of a sorted sequence), so owner residuals
	// are canonical without re-sorting.
	if s.res != nil {
		resParts, err := s.res.partitionBy(dim, n, owner)
		if err != nil {
			return nil, fmt.Errorf("cubestore: split: %w", err)
		}
		for i, b := range builders[:n] {
			if err := b.SetResidual(resParts[i]); err != nil {
				return nil, fmt.Errorf("cubestore: split: partition %d: %w", i, err)
			}
		}
	}
	ps := &PartitionSet{Dim: dim, Count: n, Generation: generation}
	for i, b := range builders {
		st, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("cubestore: split: partition %d: %w", i, err)
		}
		idx := i
		if i == n {
			idx = 0 // the residual frame carries no owner index
		}
		ps.Parts = append(ps.Parts, &Partition{
			Header: PartitionHeader{
				Dim:        dim,
				Index:      idx,
				Count:      n,
				Residual:   i == n,
				Generation: generation,
			},
			Store: st,
		})
	}
	return ps, nil
}

// Merge reassembles the single store the set was split from, using
// MergePartitions as the merge primitive: every owner partition's cells must
// fix Dim, the residual's must leave it wildcard, and duplicate cells across
// partitions are rejected. The result is canonical, so merging a set split
// from a store reproduces that store's snapshot bytes exactly.
func (ps *PartitionSet) Merge() (*Store, error) {
	if len(ps.Parts) != ps.Count+1 {
		return nil, fmt.Errorf("cubestore: merge set: have %d partitions, want %d owners + residual", len(ps.Parts), ps.Count)
	}
	nd, hasAux := 0, false
	for i, p := range ps.Parts {
		if p.Store == nil {
			return nil, fmt.Errorf("cubestore: merge set: partition %d has no store", i)
		}
		if i == 0 {
			nd, hasAux = p.Store.nd, p.Store.hasAux
			continue
		}
		if p.Store.nd != nd || p.Store.hasAux != hasAux {
			return nil, fmt.Errorf("cubestore: merge set: partition %d shape (%d dims, aux=%v) disagrees with partition 0 (%d dims, aux=%v)",
				i, p.Store.nd, p.Store.hasAux, nd, hasAux)
		}
	}
	if ps.Dim < 0 || ps.Dim >= nd {
		return nil, fmt.Errorf("cubestore: merge set: dimension %d out of range (store has %d)", ps.Dim, nd)
	}
	var fresh []core.Cell
	var werr error
	for i, p := range ps.Parts {
		residual := i == ps.Count
		p.Store.Walk(func(c core.Cell) bool {
			if wild := c.Values[ps.Dim] == core.Star; wild != residual {
				werr = fmt.Errorf("cubestore: merge set: partition %d (residual=%v) holds a cell with dim %d wildcard=%v", i, residual, ps.Dim, wild)
				return false
			}
			fresh = append(fresh, c)
			return true
		})
		if werr != nil {
			return nil, werr
		}
	}
	// The merged store carries an iceberg residual iff every owner partition
	// does (the wildcard frame never does: its cells span owners, but residual
	// rows fix Dim). A mixed set would make the merged aggregates claim an
	// exactness only some shards can back, so it is rejected.
	var freshRes *Residual
	withRes := 0
	for i := 0; i < ps.Count; i++ {
		if ps.Parts[i].Store.HasResidual() {
			withRes++
		}
	}
	if ps.Parts[ps.Count].Store.HasResidual() {
		return nil, fmt.Errorf("cubestore: merge set: wildcard partition must not carry an iceberg residual")
	}
	if withRes > 0 && withRes < ps.Count {
		return nil, fmt.Errorf("cubestore: merge set: %d of %d owner partitions carry an iceberg residual", withRes, ps.Count)
	}
	if withRes == ps.Count && ps.Count > 0 {
		var rows []ResidualRow
		for i := 0; i < ps.Count; i++ {
			rows = append(rows, ps.Parts[i].Store.res.Rows()...)
		}
		var err error
		if freshRes, err = residualFromRows(nd, hasAux, rows); err != nil {
			return nil, fmt.Errorf("cubestore: merge set: %w", err)
		}
	}
	base, err := NewBuilder(nd, hasAux).Build()
	if err != nil {
		return nil, fmt.Errorf("cubestore: merge set: %w", err)
	}
	return base.MergePartitions(ps.Dim, func(core.Value) bool { return true }, fresh, freshRes)
}

// WritePartition writes one partition frame to w.
func WritePartition(w io.Writer, p *Partition) error {
	if p.Store == nil {
		return fmt.Errorf("cubestore: write partition: nil store")
	}
	var payload bytes.Buffer
	if err := p.Store.Save(&payload); err != nil {
		return fmt.Errorf("cubestore: write partition: %w", err)
	}
	var head bytes.Buffer
	head.WriteString(partitionMagic)
	head.WriteByte(PartitionVersion)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		head.Write(scratch[:binary.PutUvarint(scratch[:], v)])
	}
	putUvarint(uint64(p.Header.Dim))
	putUvarint(uint64(p.Header.Index))
	putUvarint(uint64(p.Header.Count))
	flags := byte(0)
	if p.Header.Residual {
		flags |= flagResidual
	}
	head.WriteByte(flags)
	putUvarint(p.Header.Generation)
	putUvarint(uint64(payload.Len()))
	binary.LittleEndian.PutUint32(scratch[:4], crc32.ChecksumIEEE(head.Bytes()))
	head.Write(scratch[:4])
	if _, err := w.Write(head.Bytes()); err != nil {
		return fmt.Errorf("cubestore: write partition: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("cubestore: write partition: %w", err)
	}
	return nil
}

// ReadPartition reads one partition frame written by WritePartition,
// validating the header checksum and the payload's own snapshot checksum. A
// truncated or corrupted frame yields an error, never a partial partition.
func ReadPartition(r io.Reader) (*Partition, error) {
	cr := &crcReader{r: r}
	rd := &byteReader{r: cr}
	var head [8]byte
	if _, err := io.ReadFull(rd, head[:]); err != nil {
		return nil, fmt.Errorf("cubestore: read partition: %w", err)
	}
	if string(head[:7]) != partitionMagic {
		return nil, fmt.Errorf("cubestore: read partition: bad magic %q", head[:7])
	}
	if head[7] != PartitionVersion {
		return nil, fmt.Errorf("cubestore: read partition: unsupported frame version %d (want %d)", head[7], PartitionVersion)
	}
	var h PartitionHeader
	uvarint := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(rd)
		if err != nil {
			return 0, fmt.Errorf("cubestore: read partition: %s: %w", what, err)
		}
		return v, nil
	}
	dim, err := uvarint("dim")
	if err != nil {
		return nil, err
	}
	index, err := uvarint("index")
	if err != nil {
		return nil, err
	}
	count, err := uvarint("count")
	if err != nil {
		return nil, err
	}
	if dim >= uint64(core.MaxDims) || count == 0 || count > maxSnapshotRows || index >= count {
		return nil, fmt.Errorf("cubestore: read partition: implausible header (dim %d, index %d, count %d)", dim, index, count)
	}
	flags, err := rd.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("cubestore: read partition: flags: %w", err)
	}
	if flags&^flagResidual != 0 {
		return nil, fmt.Errorf("cubestore: read partition: unknown flags %#x", flags)
	}
	h.Dim, h.Index, h.Count = int(dim), int(index), int(count)
	h.Residual = flags&flagResidual != 0
	if h.Generation, err = uvarint("generation"); err != nil {
		return nil, err
	}
	paylen, err := uvarint("payload length")
	if err != nil {
		return nil, err
	}
	if paylen > maxPartitionPayload {
		return nil, fmt.Errorf("cubestore: read partition: implausible payload length %d", paylen)
	}
	want := cr.crc
	var tail [4]byte
	if _, err := io.ReadFull(rd, tail[:]); err != nil {
		return nil, fmt.Errorf("cubestore: read partition: checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("cubestore: read partition: header checksum mismatch (%#x != %#x)", got, want)
	}
	payload, err := ReadAllChunked(r, int(paylen))
	if err != nil {
		return nil, fmt.Errorf("cubestore: read partition: payload: %w", err)
	}
	pr := bytes.NewReader(payload)
	st, err := Load(pr)
	if err != nil {
		return nil, fmt.Errorf("cubestore: read partition: payload: %w", err)
	}
	// The snapshot must account for every declared payload byte: trailing
	// garbage would silently desync the next frame in a stream.
	if pr.Len() != 0 {
		return nil, fmt.Errorf("cubestore: read partition: %d trailing payload bytes", pr.Len())
	}
	return &Partition{Header: h, Store: st}, nil
}

// Partition set stream format:
//
//	magic   "CCPSET\x00" + version byte (8 bytes raw)
//	dim     uvarint
//	count   uvarint (owner partitions; count+1 frames follow)
//	gen     uvarint
//	crc32   IEEE checksum of everything above (4 bytes LE, raw)
//	frames  count+1 partition frames, owners ascending then the residual
const partitionSetMagic = "CCPSET\x00"

// Encode writes the whole set — preamble plus every frame — to w.
func (ps *PartitionSet) Encode(w io.Writer) error {
	if len(ps.Parts) != ps.Count+1 {
		return fmt.Errorf("cubestore: encode set: have %d partitions, want %d owners + residual", len(ps.Parts), ps.Count)
	}
	var head bytes.Buffer
	head.WriteString(partitionSetMagic)
	head.WriteByte(PartitionVersion)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		head.Write(scratch[:binary.PutUvarint(scratch[:], v)])
	}
	putUvarint(uint64(ps.Dim))
	putUvarint(uint64(ps.Count))
	putUvarint(ps.Generation)
	binary.LittleEndian.PutUint32(scratch[:4], crc32.ChecksumIEEE(head.Bytes()))
	head.Write(scratch[:4])
	if _, err := w.Write(head.Bytes()); err != nil {
		return fmt.Errorf("cubestore: encode set: %w", err)
	}
	for i, p := range ps.Parts {
		if err := WritePartition(w, p); err != nil {
			return fmt.Errorf("cubestore: encode set: partition %d: %w", i, err)
		}
	}
	return nil
}

// DecodePartitionSet reads a stream written by Encode, validating the
// preamble checksum and every frame's header against the set (dimension,
// shard count, generation, position).
func DecodePartitionSet(r io.Reader) (*PartitionSet, error) {
	cr := &crcReader{r: r}
	rd := &byteReader{r: cr}
	var head [8]byte
	if _, err := io.ReadFull(rd, head[:]); err != nil {
		return nil, fmt.Errorf("cubestore: decode set: %w", err)
	}
	if string(head[:7]) != partitionSetMagic {
		return nil, fmt.Errorf("cubestore: decode set: bad magic %q", head[:7])
	}
	if head[7] != PartitionVersion {
		return nil, fmt.Errorf("cubestore: decode set: unsupported version %d (want %d)", head[7], PartitionVersion)
	}
	dim, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, fmt.Errorf("cubestore: decode set: dim: %w", err)
	}
	count, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, fmt.Errorf("cubestore: decode set: count: %w", err)
	}
	gen, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, fmt.Errorf("cubestore: decode set: generation: %w", err)
	}
	if dim >= uint64(core.MaxDims) || count == 0 || count > maxSnapshotRows {
		return nil, fmt.Errorf("cubestore: decode set: implausible preamble (dim %d, count %d)", dim, count)
	}
	want := cr.crc
	var tail [4]byte
	if _, err := io.ReadFull(rd, tail[:]); err != nil {
		return nil, fmt.Errorf("cubestore: decode set: checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("cubestore: decode set: preamble checksum mismatch (%#x != %#x)", got, want)
	}
	ps := &PartitionSet{Dim: int(dim), Count: int(count), Generation: gen}
	for i := 0; i <= ps.Count; i++ {
		p, err := ReadPartition(r)
		if err != nil {
			return nil, fmt.Errorf("cubestore: decode set: partition %d: %w", i, err)
		}
		h := p.Header
		residual := i == ps.Count
		switch {
		case h.Dim != ps.Dim || h.Count != ps.Count || h.Generation != ps.Generation:
			return nil, fmt.Errorf("cubestore: decode set: partition %d header (dim %d, count %d, gen %d) disagrees with preamble (dim %d, count %d, gen %d)",
				i, h.Dim, h.Count, h.Generation, ps.Dim, ps.Count, ps.Generation)
		case h.Residual != residual:
			return nil, fmt.Errorf("cubestore: decode set: partition %d: residual=%v at position %d of %d", i, h.Residual, i, ps.Count)
		case !residual && h.Index != i:
			return nil, fmt.Errorf("cubestore: decode set: partition %d carries index %d", i, h.Index)
		}
		ps.Parts = append(ps.Parts, p)
	}
	return ps, nil
}
