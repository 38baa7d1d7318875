package ccubing

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"ccubing/internal/algs"
	"ccubing/internal/cubestore"
	"ccubing/internal/qcache"
	"ccubing/internal/refresh"
	"ccubing/internal/table"
)

// Cube snapshot format: a metadata header followed by the cell-store payload
// (internal/cubestore's snapshot: the store's little-endian memory image,
// checksummed, carrying the iceberg residual when the store has one).
//
//	 0  magic "CCUBE\x00\x00" + version byte
//	 8  hlen  u32 little-endian, the metadata's length
//	12  metadata (uvarints and length-prefixed strings): iceberg threshold,
//	    computing algorithm, measure kind (routers need it to merge
//	    scatter-gather answers), the aux-form byte (always 1: cell aux values
//	    are stored aggregates, avg as the running sum), refresh generation and
//	    source-row count (they validate warm snapshot reloads), dimension
//	    names and, when present, the per-dimension dictionaries, so CSV-built
//	    cubes answer label queries after a round trip
//	    zero padding, so that the payload starts 8-byte aligned in the file
//	    crc32 u32 (IEEE) of everything above
//	    store payload
//
// A loaded cube's store aliases the one buffer the file was read into; the
// alignment is what lets it.
const cubeMagic = "CCUBE\x00\x00"

// CubeSnapshotVersion is the one Cube snapshot format version Save writes and
// LoadCube accepts. Files of any other version are rejected: git history is
// the archive of the older layouts, and their snapshots are rebuilt from data.
const CubeSnapshotVersion = 5

// cubeFixedLen is the length of magic, version and hlen.
const cubeFixedLen = len(cubeMagic) + 1 + 4

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
	head := append(make([]byte, 0, 256), cubeMagic...)
	head = append(head, CubeSnapshotVersion, 0, 0, 0, 0)
	putString := func(s string) {
		head = append(binary.AppendUvarint(head, uint64(len(s))), s...)
	}
	head = binary.AppendUvarint(head, uint64(c.minSup))
	head = append(head, byte(c.alg), byte(c.measure), auxFormStored)
	head = binary.AppendUvarint(head, st.Generation)
	head = binary.AppendUvarint(head, uint64(st.Rows))
	head = binary.AppendUvarint(head, uint64(len(c.names)))
	for _, n := range c.names {
		putString(n)
	}
	if st.Dicts == nil {
		head = append(head, 0)
	} else {
		head = append(head, 1)
		for _, d := range st.Dicts {
			names := d.Names()
			head = binary.AppendUvarint(head, uint64(len(names)))
			for _, n := range names {
				putString(n)
			}
		}
	}
	binary.LittleEndian.PutUint32(head[len(cubeMagic)+1:], uint32(len(head)-cubeFixedLen))
	head = append(head, make([]byte, -(len(head)+4)&7)...)
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head))
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("ccubing: save: %w", err)
	}
	return st.Store.Save(w)
}

// SaveFile writes the cube's snapshot to path so that a reader — a server
// told to reload, or one booting after a crash — sees the old file or the
// new one, never a torn one: the bytes go to a temporary file in path's
// directory, are synced, renamed over path, and the directory is synced.
func (c *Cube) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // a no-op once renamed
	err = c.Save(f)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		// CreateTemp uses 0600; give the snapshot normal output-file
		// permissions so another user (the ccserve process) can read it.
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err == nil {
		var d *os.File
		if d, err = os.Open(dir); err == nil {
			err = d.Sync()
			d.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("ccubing: save %s: %w", path, err)
	}
	return nil
}

// SnapshotLoad says what loading a cube from its snapshot cost: the
// snapshot's size and the time spent reading it, verifying it (checksums,
// metadata, the store's structural invariants) and indexing the store.
type SnapshotLoad struct {
	Bytes               int64
	Read, Verify, Index time.Duration
}

// SnapshotLoad reports the load of a snapshot-loaded cube, all zeros for a
// cube that was materialized.
func (c *Cube) SnapshotLoad() SnapshotLoad { return c.load }

// LoadCubeFile loads the snapshot at path (see LoadCube).
func LoadCubeFile(path string) (*Cube, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCube(f)
}

// LoadCube reads a snapshot written by Cube.Save, validating versions and
// checksums. The loaded cube answers queries identically to the saved one.
//
// The snapshot is read to the end of r into one buffer that the cube's store
// then aliases — nothing is decoded. A reader that knows its size (a regular
// *os.File, or anything with a Len method, like *bytes.Reader) costs one
// allocation of exactly that size; any other reader goes through io.ReadAll.
func LoadCube(r io.Reader) (*Cube, error) {
	t0 := time.Now()
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: %w", err)
	}
	read := time.Since(t0)
	cube, err := openCube(data)
	if err != nil {
		return nil, fmt.Errorf("ccubing: load: %w", err)
	}
	cube.load.Read = read
	return cube, nil
}

// readAll reads r to its end, in one exact-size allocation when r can say
// how much is left: growing a buffer by append instead re-copies a large
// snapshot several times over (and so does bytes.Buffer.Grow). The size is
// what the reader holds, not what its bytes declare, so the allocation is
// bounded by the input.
func readAll(r io.Reader) ([]byte, error) {
	size := int64(-1)
	switch v := r.(type) {
	case interface{ Len() int }:
		size = int64(v.Len())
	case *os.File:
		if st, err := v.Stat(); err == nil && st.Mode().IsRegular() {
			if pos, err := v.Seek(0, io.SeekCurrent); err == nil {
				size = st.Size() - pos
			}
		}
	}
	if size < 0 || int64(int(size)) != size {
		return io.ReadAll(r)
	}
	data := make([]byte, size)
	n, err := io.ReadFull(r, data)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil // a file that shrank meanwhile fails the checks like any torn snapshot
	}
	return data[:n], err
}

// metaReader decodes the metadata's uvarints, bytes and strings. After the
// first short read it returns zeros and keeps the error.
type metaReader struct {
	b   []byte
	err error
}

func (m *metaReader) fail(err error) {
	if m.err == nil {
		m.err = err
	}
	m.b = nil
}

func (m *metaReader) uvarint() uint64 {
	v, n := binary.Uvarint(m.b)
	if n <= 0 {
		m.fail(io.ErrUnexpectedEOF)
		return 0
	}
	m.b = m.b[n:]
	return v
}

func (m *metaReader) byte() byte {
	if len(m.b) == 0 {
		m.fail(io.ErrUnexpectedEOF)
		return 0
	}
	c := m.b[0]
	m.b = m.b[1:]
	return c
}

func (m *metaReader) string() string {
	n := m.uvarint()
	if n > uint64(len(m.b)) {
		m.fail(fmt.Errorf("string length %d exceeds header", n))
		return ""
	}
	s := string(m.b[:n])
	m.b = m.b[n:]
	return s
}

// openCube parses the metadata header at the front of data and opens the
// store over the rest of it.
func openCube(data []byte) (*Cube, error) {
	t0 := time.Now()
	if len(data) < cubeFixedLen {
		return nil, io.ErrUnexpectedEOF
	}
	if string(data[:len(cubeMagic)]) != cubeMagic {
		return nil, fmt.Errorf("not a cube snapshot (magic %q)", data[:len(cubeMagic)])
	}
	if version := data[len(cubeMagic)]; version != CubeSnapshotVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d (want %d)", version, CubeSnapshotVersion)
	}
	hlen := uint64(binary.LittleEndian.Uint32(data[len(cubeMagic)+1:]))
	// The metadata ends at metaEnd; padding and checksum end 8-aligned at
	// payload, where the store's image starts.
	metaEnd := uint64(cubeFixedLen) + hlen
	payload := (metaEnd + 4 + 7) &^ 7
	if payload > uint64(len(data)) {
		return nil, fmt.Errorf("header of %d bytes exceeds the snapshot", hlen)
	}
	if got, want := binary.LittleEndian.Uint32(data[payload-4:]), crc32.ChecksumIEEE(data[:payload-4]); got != want {
		return nil, fmt.Errorf("header checksum mismatch (%#x != %#x)", got, want)
	}
	for _, b := range data[metaEnd : payload-4] {
		if b != 0 {
			return nil, fmt.Errorf("nonzero header padding")
		}
	}
	m := &metaReader{b: data[cubeFixedLen:metaEnd]}
	cube := &Cube{minSup: int64(m.uvarint())}
	cube.alg, cube.measure = Algorithm(m.byte()), MeasureKind(m.byte())
	auxForm := m.byte()
	generation, rows, nd := m.uvarint(), m.uvarint(), m.uvarint()
	switch {
	case m.err != nil:
		return nil, fmt.Errorf("header: %w", m.err)
	case int(cube.alg) >= len(algs.Table):
		return nil, fmt.Errorf("unknown algorithm %d", cube.alg)
	case cube.measure > MeasureAvg:
		return nil, fmt.Errorf("unknown measure kind %d", cube.measure)
	case auxForm != auxFormStored:
		return nil, fmt.Errorf("unsupported aux form %d (want %d)", auxForm, auxFormStored)
	case nd == 0 || nd > uint64(MaxDims):
		return nil, fmt.Errorf("%d dimensions out of range", nd)
	}
	cube.cache.Store(qcache.New(DefaultQueryCacheEntries))
	cube.names = make([]string, nd)
	for d := range cube.names {
		cube.names[d] = m.string()
	}
	var dicts []*table.Dict
	switch hasDicts := m.byte(); hasDicts {
	case 0:
	case 1:
		dicts = make([]*table.Dict, nd)
		for d := range dicts {
			// Each label costs at least one length byte, so a count beyond
			// the remaining header is corruption — reject before allocating.
			n := m.uvarint()
			if n > uint64(len(m.b)) {
				return nil, fmt.Errorf("dictionary %d: implausible label count %d", d, n)
			}
			names := make([]string, n)
			for i := range names {
				names[i] = m.string()
			}
			dicts[d] = table.DictFromNames(names)
		}
	default:
		return nil, fmt.Errorf("bad dictionary flag %d", hasDicts)
	}
	if m.err != nil {
		return nil, fmt.Errorf("names and dictionaries: %w", m.err)
	}
	store, index, err := cubestore.Open(data[payload:])
	if err != nil {
		return nil, err
	}
	if store.NumDims() != int(nd) {
		return nil, fmt.Errorf("store has %d dimensions, header %d", store.NumDims(), nd)
	}
	cube.static.Store(&refresh.Snapshot{
		Store:      store,
		Dicts:      dicts,
		Generation: generation,
		Rows:       int64(rows),
	})
	cube.stats = Stats{Algorithm: cube.alg, Cells: store.NumCells()}
	cube.load = SnapshotLoad{Bytes: int64(len(data)), Verify: time.Since(t0) - index, Index: index}
	return cube, nil
}
