package refresh

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"ccubing/internal/core"
)

// Log is the write-ahead delta buffer of a refresh Manager: pending delta
// operations — appended tuples, delete tombstones, and update pairs —
// accumulate in memory and, when a WAL path is configured, in an on-disk
// log, until a refresh folds them into the relation. The WAL makes pending
// (not yet refreshed) operations survive a process restart: a new Manager
// over the same base relation replays them into the buffer.
//
// File format (version 2, the only one replayed): "CCWAL\x00" magic, version
// byte, nd byte, hasAux byte, then CRC-framed typed records. Each record is a
// type byte (recAppend, recDelete, recUpdate), a payload of one tuple (nd
// little-endian uint32 values plus a float64 bit pattern when hasAux) — two
// tuples for recUpdate, old then new, so an update pair is crash-atomic — and
// a little-endian CRC32 (IEEE) of the type byte and payload. Replay stops at
// the first record that is truncated, fails its checksum, or carries an
// unknown type, and truncates the file there: the usual write-ahead-log
// recovery contract, extended from "drop the torn tail" to "drop the corrupt
// tail".
//
// A file of any other version is rejected before a byte of it is touched —
// its records would otherwise look like a corrupt tail and be truncated
// away. A Log is not goroutine-safe; the staged delta serializes access.
//
// The log does not touch storage directly: it frames, checksums and replays
// records over a WAL (raw byte storage), so the same recovery machinery
// runs against a local file or the in-memory double the tests substitute.
type deltaLog struct {
	nd     int
	hasAux bool
	vals   []core.Value // flattened, nd per row
	aux    []float64    // parallel to rows when hasAux
	kinds  []byte       // parallel op kinds, one of Op*
	w      WAL
}

// Op kinds, one per row of a Batch and of the buffered delta. An update is an
// adjacent (OpUpdateOld, OpUpdateNew) pair, journaled as one recUpdate record.
const (
	OpAppend byte = iota // tuple joins the relation
	OpDelete             // tombstone: one matching occurrence leaves
	OpUpdateOld
	OpUpdateNew
)

// WAL record types.
const (
	recAppend byte = 1
	recDelete byte = 2
	recUpdate byte = 3
)

const walMagic = "CCWAL\x00"

// walVersion is the one WAL file format version written and replayed.
const walVersion = 2

func newDeltaLog(nd int, hasAux bool) *deltaLog {
	return &deltaLog{nd: nd, hasAux: hasAux}
}

// tupleSize returns the byte size of one encoded tuple.
func (l *deltaLog) tupleSize() int {
	n := 4 * l.nd
	if l.hasAux {
		n += 8
	}
	return n
}

// attach replays w's pending records into the in-memory buffer (dropping a
// torn or corrupt tail, which is truncated away so subsequent appends extend
// a valid log) and takes ownership of w. It returns the number of replayed
// rows. Nothing is written to w, buffered, or attached until the header
// matches this log's shape and accept (when non-nil) has vetted the replayed
// values: a rejected WAL is left byte-for-byte untouched and still belongs to
// the caller, who closes it.
func (l *deltaLog) attach(w WAL, accept func(vals []core.Value) error) (int, error) {
	contents, err := w.Load()
	if err != nil {
		return 0, err
	}
	if len(contents) == 0 {
		if err := w.Reset(l.header()); err != nil {
			return 0, err
		}
		l.w = w
		return 0, nil
	}
	headLen := len(walMagic) + 3
	if len(contents) < headLen {
		return 0, fmt.Errorf("refresh: wal header: truncated (%d bytes)", len(contents))
	}
	head := contents[:headLen]
	if string(head[:len(walMagic)]) != walMagic {
		return 0, fmt.Errorf("refresh: wal: bad magic %q", head[:len(walMagic)])
	}
	if version := head[len(walMagic)]; version != walVersion {
		return 0, fmt.Errorf("refresh: wal: unsupported version %d (want %d)", version, walVersion)
	}
	if int(head[len(walMagic)+1]) != l.nd {
		return 0, fmt.Errorf("refresh: wal: %d dimensions, relation has %d", head[len(walMagic)+1], l.nd)
	}
	if (head[len(walMagic)+2] == 1) != l.hasAux {
		return 0, fmt.Errorf("refresh: wal: measure flag mismatch")
	}
	body := contents[headLen:]
	nv, na, nk := len(l.vals), len(l.aux), len(l.kinds)
	good, rows := l.replay(body) // good: bytes of body holding fully valid records
	if accept != nil {
		err = accept(l.vals[nv:])
	}
	if err == nil && good < len(body) {
		// Truncate the torn/corrupt tail so subsequent appends extend a valid
		// log.
		err = w.Truncate(int64(headLen + good))
	}
	if err != nil {
		l.vals, l.aux, l.kinds = l.vals[:nv], l.aux[:na], l.kinds[:nk]
		return 0, err
	}
	l.w = w
	return rows, nil
}

// replay decodes the CRC-framed typed record stream, returning the length
// of the valid prefix and the rows buffered. Decoding stops at the first
// truncated record, checksum mismatch, or unknown record type.
func (l *deltaLog) replay(body []byte) (good, rows int) {
	ts := l.tupleSize()
	off := 0
	for off < len(body) {
		var payload int
		switch body[off] {
		case recAppend, recDelete:
			payload = ts
		case recUpdate:
			payload = 2 * ts
		default:
			return off, rows // unknown type: corrupt tail
		}
		end := off + 1 + payload + 4
		if end > len(body) {
			return off, rows // truncated record
		}
		sum := crc32.ChecksumIEEE(body[off : off+1+payload])
		if sum != binary.LittleEndian.Uint32(body[off+1+payload:]) {
			return off, rows // torn or corrupt record
		}
		switch body[off] {
		case recAppend:
			l.decodeTuple(body[off+1:])
			l.kinds = append(l.kinds, OpAppend)
			rows++
		case recDelete:
			l.decodeTuple(body[off+1:])
			l.kinds = append(l.kinds, OpDelete)
			rows++
		case recUpdate:
			l.decodeTuple(body[off+1:])
			l.decodeTuple(body[off+1+ts:])
			l.kinds = append(l.kinds, OpUpdateOld, OpUpdateNew)
			rows += 2
		}
		off = end
	}
	return off, rows
}

// decodeTuple appends one encoded tuple (values, then the aux bit pattern
// when hasAux) to the in-memory buffer.
func (l *deltaLog) decodeTuple(b []byte) {
	for d := 0; d < l.nd; d++ {
		l.vals = append(l.vals, core.Value(binary.LittleEndian.Uint32(b[4*d:])))
	}
	if l.hasAux {
		l.aux = append(l.aux, math.Float64frombits(binary.LittleEndian.Uint64(b[4*l.nd:])))
	}
}

// header encodes the WAL file header for this log's shape.
func (l *deltaLog) header() []byte {
	head := append([]byte(walMagic), walVersion, byte(l.nd), 0)
	if l.hasAux {
		head[len(head)-1] = 1
	}
	return head
}

// encodeTuple appends one tuple's payload bytes to buf.
func (l *deltaLog) encodeTuple(buf []byte, row int, vals []core.Value, aux []float64) []byte {
	for d := 0; d < l.nd; d++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(vals[row*l.nd+d]))
	}
	if l.hasAux {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(aux[row]))
	}
	return buf
}

// encodeRecords frames the given rows as records: one recAppend or
// recDelete per row, with adjacent (OpUpdateOld, OpUpdateNew) pairs fused
// into a single crash-atomic recUpdate. Nil kinds means all OpAppend.
func (l *deltaLog) encodeRecords(rows []core.Value, aux []float64, kinds []byte) []byte {
	ts, n := l.tupleSize(), len(rows)/l.nd
	buf := make([]byte, 0, n*(1+ts+4))
	for i := 0; i < n; i++ {
		start := len(buf)
		kind := OpAppend
		if kinds != nil {
			kind = kinds[i]
		}
		switch kind {
		case OpAppend:
			buf = append(buf, recAppend)
			buf = l.encodeTuple(buf, i, rows, aux)
		case OpDelete:
			buf = append(buf, recDelete)
			buf = l.encodeTuple(buf, i, rows, aux)
		case OpUpdateOld:
			buf = append(buf, recUpdate)
			buf = l.encodeTuple(buf, i, rows, aux)
			i++ // the paired OpUpdateNew row
			buf = l.encodeTuple(buf, i, rows, aux)
		}
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	}
	return buf
}

// append buffers flattened rows (len a multiple of nd) with their op kinds
// (one per row; nil means all OpAppend), writing them through to the WAL
// first when one is attached. An update pair must arrive as adjacent
// (OpUpdateOld, OpUpdateNew) rows.
func (l *deltaLog) append(rows []core.Value, aux []float64, kinds []byte) error {
	if l.w != nil {
		start := time.Now()
		err := l.w.Append(l.encodeRecords(rows, aux, kinds))
		walAppendSeconds.Observe(time.Since(start))
		if err != nil {
			return err
		}
	}
	l.vals = append(l.vals, rows...)
	if l.hasAux {
		l.aux = append(l.aux, aux...)
	}
	if kinds == nil {
		l.kinds = append(l.kinds, make([]byte, len(rows)/l.nd)...) // grows in place: no temporary
	} else {
		l.kinds = append(l.kinds, kinds...)
	}
	return nil
}

// rows returns the number of buffered delta rows (an update pair counts as
// two).
func (l *deltaLog) rows() int {
	return len(l.kinds)
}

// steal hands the buffered delta to a refresh and resets the buffer. The WAL
// file is untouched until rewrite confirms the refresh published.
func (l *deltaLog) steal() ([]core.Value, []float64, []byte) {
	vals, aux, kinds := l.vals, l.aux, l.kinds
	l.vals, l.aux, l.kinds = nil, nil, nil
	return vals, aux, kinds
}

// unsteal puts a stolen batch back in front of the buffer after a failed
// refresh, so the delta is retried rather than lost.
func (l *deltaLog) unsteal(rows []core.Value, aux []float64, kinds []byte) {
	l.vals = append(rows, l.vals...)
	if l.hasAux {
		l.aux = append(aux, l.aux...)
	}
	l.kinds = append(kinds, l.kinds...)
}

// rewrite rewrites the WAL to hold exactly the current buffer (the rows that
// arrived during the refresh), dropping the folded prefix. Called after a
// refresh publishes. The in-memory buffer is never touched: if the write
// fails, the buffered rows stay intact for the next refresh (and the error
// is surfaced so the operator knows the on-disk log lags the buffer).
func (l *deltaLog) rewrite() error {
	if l.w == nil {
		return nil
	}
	contents := l.header()
	if len(l.kinds) > 0 {
		contents = append(contents, l.encodeRecords(l.vals, l.aux, l.kinds)...)
	}
	start := time.Now()
	err := l.w.Reset(contents)
	walRewriteSeconds.Observe(time.Since(start))
	return err
}

// sync forces appended records to durable storage (graceful shutdown: the
// buffered delta must survive the process).
func (l *deltaLog) sync() error {
	if l.w == nil {
		return nil
	}
	start := time.Now()
	err := l.w.Sync()
	walSyncSeconds.Observe(time.Since(start))
	return err
}

func (l *deltaLog) close() error {
	if l.w == nil {
		return nil
	}
	err := l.w.Close()
	l.w = nil
	return err
}
