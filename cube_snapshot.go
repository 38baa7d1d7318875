package ccubing

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"ccubing/internal/cubestore"
	"ccubing/internal/qcache"
	"ccubing/internal/refresh"
	"ccubing/internal/table"
)

// Cube snapshot format: a metadata header (length-prefixed, CRC-protected)
// followed by the cell-store payload (internal/cubestore's versioned,
// checksummed snapshot, which carries the iceberg residual when the store
// has one). The header holds the iceberg threshold, computing algorithm, the
// measure kind (routers need it to merge scatter-gather answers), the
// aux-form byte (always 1: cell aux values are stored aggregates, avg as the
// running sum), the refresh generation and source-row count (used to
// validate warm snapshot reloads), dimension names and, when present, the
// per-dimension dictionaries, so CSV-built cubes answer label queries after
// a round trip.
const cubeMagic = "CCUBE\x00\x00"

// CubeSnapshotVersion is the one Cube snapshot format version Save writes and
// LoadCube accepts. Files of any other version are rejected: git history is
// the archive of the older layouts.
const CubeSnapshotVersion = 4

// auxFormStored is the header's aux-form byte: cell aux values are stored
// (mergeable) aggregates. The only form written; anything else is rejected
// on load, so egress presentation never has to guess what a file holds.
const auxFormStored = 1

// Save writes a snapshot of the cube to w. Output is deterministic: saving,
// loading and saving again produces identical bytes. The snapshot captures
// the current serving state — a cube saved after a refresh records the
// refreshed cells, generation and row count.
func (c *Cube) Save(w io.Writer) error {
	st := c.snap()
	var head bytes.Buffer
	putUvarint := func(v uint64) {
		var b [binary.MaxVarintLen64]byte
		head.Write(b[:binary.PutUvarint(b[:], v)])
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		head.WriteString(s)
	}
	putUvarint(uint64(c.minSup))
	head.WriteByte(byte(c.alg))
	head.WriteByte(byte(c.measure))
	head.WriteByte(auxFormStored)
	putUvarint(st.Generation)
	putUvarint(uint64(st.Rows))
	putUvarint(uint64(len(c.names)))
	for _, n := range c.names {
		putString(n)
	}
	if st.Dicts == nil {
		head.WriteByte(0)
	} else {
		head.WriteByte(1)
		for _, d := range st.Dicts {
			names := d.Names()
			putUvarint(uint64(len(names)))
			for _, n := range names {
				putString(n)
			}
		}
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(cubeMagic); err != nil {
		return fmt.Errorf("ccubing: save: %w", err)
	}
	if err := bw.WriteByte(CubeSnapshotVersion); err != nil {
		return fmt.Errorf("ccubing: save: %w", err)
	}
	var b [binary.MaxVarintLen64]byte
	if _, err := bw.Write(b[:binary.PutUvarint(b[:], uint64(head.Len()))]); err != nil {
		return fmt.Errorf("ccubing: save: %w", err)
	}
	if _, err := bw.Write(head.Bytes()); err != nil {
		return fmt.Errorf("ccubing: save: %w", err)
	}
	binary.LittleEndian.PutUint32(b[:4], crc32.ChecksumIEEE(head.Bytes()))
	if _, err := bw.Write(b[:4]); err != nil {
		return fmt.Errorf("ccubing: save: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("ccubing: save: %w", err)
	}
	return st.Store.Save(w)
}

// LoadCube reads a snapshot written by Cube.Save, validating versions and
// checksums. The loaded cube answers queries identically to the saved one.
func LoadCube(r io.Reader) (*Cube, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(cubeMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("ccubing: load: %w", err)
	}
	if string(head[:len(cubeMagic)]) != cubeMagic {
		return nil, fmt.Errorf("ccubing: load: not a cube snapshot (magic %q)", head[:len(cubeMagic)])
	}
	if version := head[len(cubeMagic)]; version != CubeSnapshotVersion {
		return nil, fmt.Errorf("ccubing: load: unsupported snapshot version %d (want %d)", version, CubeSnapshotVersion)
	}
	hlen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: %w", err)
	}
	if hlen > 1<<30 {
		return nil, fmt.Errorf("ccubing: load: implausible header size %d", hlen)
	}
	// Chunked read: a corrupt length prefix fails on EOF instead of
	// pre-allocating the declared size.
	hbuf, err := cubestore.ReadAllChunked(br, int(hlen))
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: header: %w", err)
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(br, crcBytes[:]); err != nil {
		return nil, fmt.Errorf("ccubing: load: header checksum: %w", err)
	}
	if got, want := binary.LittleEndian.Uint32(crcBytes[:]), crc32.ChecksumIEEE(hbuf); got != want {
		return nil, fmt.Errorf("ccubing: load: header checksum mismatch (%#x != %#x)", got, want)
	}

	hr := bytes.NewReader(hbuf)
	readString := func() (string, error) {
		n, err := binary.ReadUvarint(hr)
		if err != nil {
			return "", err
		}
		if n > uint64(hr.Len()) {
			return "", fmt.Errorf("string length %d exceeds header", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(hr, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	minSup, err := binary.ReadUvarint(hr)
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: header: %w", err)
	}
	algByte, err := hr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: header: %w", err)
	}
	if Algorithm(algByte) > AlgOBBUC {
		return nil, fmt.Errorf("ccubing: load: unknown algorithm %d", algByte)
	}
	mb, err := hr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: header: %w", err)
	}
	if MeasureKind(mb) > MeasureAvg {
		return nil, fmt.Errorf("ccubing: load: unknown measure kind %d", mb)
	}
	fb, err := hr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: header: %w", err)
	}
	if fb != auxFormStored {
		return nil, fmt.Errorf("ccubing: load: unsupported aux form %d (want %d)", fb, auxFormStored)
	}
	generation, err := binary.ReadUvarint(hr)
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: header: %w", err)
	}
	rows, err := binary.ReadUvarint(hr)
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: header: %w", err)
	}
	nd, err := binary.ReadUvarint(hr)
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: header: %w", err)
	}
	if nd == 0 || nd > uint64(MaxDims) {
		return nil, fmt.Errorf("ccubing: load: %d dimensions out of range", nd)
	}
	cube := &Cube{minSup: int64(minSup), alg: Algorithm(algByte), measure: MeasureKind(mb)}
	cube.cache.Store(qcache.New(DefaultQueryCacheEntries))
	cube.names = make([]string, nd)
	for d := range cube.names {
		if cube.names[d], err = readString(); err != nil {
			return nil, fmt.Errorf("ccubing: load: names: %w", err)
		}
	}
	hasDicts, err := hr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: header: %w", err)
	}
	var dicts []*table.Dict
	switch hasDicts {
	case 0:
	case 1:
		dicts = make([]*table.Dict, nd)
		for d := range dicts {
			n, err := binary.ReadUvarint(hr)
			if err != nil {
				return nil, fmt.Errorf("ccubing: load: dictionaries: %w", err)
			}
			// Each label costs at least one length byte, so a count beyond
			// the remaining header is corruption — reject before allocating.
			if n > uint64(hr.Len()) {
				return nil, fmt.Errorf("ccubing: load: dictionary %d: implausible label count %d", d, n)
			}
			names := make([]string, n)
			for i := range names {
				if names[i], err = readString(); err != nil {
					return nil, fmt.Errorf("ccubing: load: dictionaries: %w", err)
				}
			}
			dicts[d] = table.DictFromNames(names)
		}
	default:
		return nil, fmt.Errorf("ccubing: load: bad dictionary flag %d", hasDicts)
	}
	store, err := cubestore.Load(br)
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: %w", err)
	}
	if store.NumDims() != int(nd) {
		return nil, fmt.Errorf("ccubing: load: store has %d dimensions, header %d", store.NumDims(), nd)
	}
	cube.static.Store(&refresh.Snapshot{
		Store:      store,
		Dicts:      dicts,
		Generation: generation,
		Rows:       int64(rows),
	})
	cube.stats = Stats{Algorithm: cube.alg, Cells: store.NumCells()}
	return cube, nil
}
