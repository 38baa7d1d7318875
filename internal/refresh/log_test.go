package refresh

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ccubing/internal/core"
)

// logRow is one op for the log tests: values, aux, and the op kind.
type logRow struct {
	vals []core.Value
	aux  float64
	kind byte
}

// appendOps buffers rows into l, fusing adjacent update pairs exactly as the
// Manager does.
func appendOps(t testing.TB, l *deltaLog, rows []logRow) {
	t.Helper()
	var flat []core.Value
	var aux []float64
	var kinds []byte
	for _, r := range rows {
		flat = append(flat, r.vals...)
		if l.hasAux {
			aux = append(aux, r.aux)
		}
		kinds = append(kinds, r.kind)
	}
	if err := l.append(flat, aux, kinds); err != nil {
		t.Fatal(err)
	}
}

// attachFile attaches the WAL file at path to l.
func (l *deltaLog) attachFile(path string) (int, error) {
	w, err := OpenFileWAL(path)
	if err != nil {
		return 0, err
	}
	return l.attach(w, nil)
}

func logState(l *deltaLog) ([]core.Value, []float64, []byte) {
	return append([]core.Value(nil), l.vals...), append([]float64(nil), l.aux...), append([]byte(nil), l.kinds...)
}

// mixedOps is a delta exercising every record type, with update pairs.
func mixedOps() []logRow {
	return []logRow{
		{vals: []core.Value{1, 2}, aux: 1.5, kind: OpAppend},
		{vals: []core.Value{3, 0}, aux: -2.25, kind: OpDelete},
		{vals: []core.Value{5, 1}, aux: 7, kind: OpUpdateOld},
		{vals: []core.Value{5, 2}, aux: 8, kind: OpUpdateNew},
		{vals: []core.Value{0, 0}, aux: 0, kind: OpAppend},
		{vals: []core.Value{9, 9}, aux: 3.125, kind: OpUpdateOld},
		{vals: []core.Value{9, 8}, aux: 3.25, kind: OpUpdateNew},
		{vals: []core.Value{4, 4}, aux: -0.5, kind: OpDelete},
	}
}

// TestWALv2RoundTrip pins the v2 format: mixed typed records (with and
// without a measure column) survive close/reopen byte-exactly.
func TestWALv2RoundTrip(t *testing.T) {
	for _, hasAux := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "v2.wal")
		l := newDeltaLog(2, hasAux)
		if _, err := l.attachFile(path); err != nil {
			t.Fatal(err)
		}
		appendOps(t, l, mixedOps())
		wantVals, wantAux, wantKinds := logState(l)
		if err := l.close(); err != nil {
			t.Fatal(err)
		}

		r := newDeltaLog(2, hasAux)
		n, err := r.attachFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		if n != len(wantKinds) {
			t.Fatalf("hasAux=%v: replayed %d rows, want %d", hasAux, n, len(wantKinds))
		}
		gotVals, gotAux, gotKinds := logState(r)
		if !reflect.DeepEqual(gotVals, wantVals) || !reflect.DeepEqual(gotKinds, wantKinds) {
			t.Fatalf("hasAux=%v: replay mismatch:\nvals  %v vs %v\nkinds %v vs %v", hasAux, gotVals, wantVals, gotKinds, wantKinds)
		}
		if hasAux && !reflect.DeepEqual(gotAux, wantAux) {
			t.Fatalf("aux mismatch: %v vs %v", gotAux, wantAux)
		}
	}
}

// TestWALv2CrashFuzz truncates a mixed v2 log at every byte offset: replay
// must never error, must recover exactly the records wholly contained in the
// prefix (an update pair is all-or-nothing), and the truncated-then-repaired
// log must accept appends and replay consistently afterwards.
func TestWALv2CrashFuzz(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	l := newDeltaLog(3, true)
	if _, err := l.attachFile(full); err != nil {
		t.Fatal(err)
	}
	ops := []logRow{
		{vals: []core.Value{1, 2, 3}, aux: 1, kind: OpAppend},
		{vals: []core.Value{4, 5, 6}, aux: 2, kind: OpDelete},
		{vals: []core.Value{7, 8, 9}, aux: 3, kind: OpUpdateOld},
		{vals: []core.Value{7, 8, 0}, aux: 4, kind: OpUpdateNew},
		{vals: []core.Value{2, 2, 2}, aux: 5, kind: OpAppend},
	}
	appendOps(t, l, ops)
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries (cumulative row counts at each valid prefix length).
	headLen := len(walMagic) + 3
	ts := 3*4 + 8
	recLens := []int{1 + ts + 4, 1 + ts + 4, 1 + 2*ts + 4, 1 + ts + 4} // append, delete, update(pair), append
	rowsAt := func(bodyLen int) int {
		rows, off := 0, 0
		for i, rl := range recLens {
			if off+rl > bodyLen {
				break
			}
			off += rl
			if i == 2 {
				rows += 2 // the update pair
			} else {
				rows++
			}
		}
		return rows
	}

	for cut := len(img); cut >= headLen; cut-- {
		path := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(path, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := newDeltaLog(3, true)
		n, err := r.attachFile(path)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if want := rowsAt(cut - headLen); n != want {
			r.close()
			t.Fatalf("cut=%d: replayed %d rows, want %d", cut, n, want)
		}
		// The torn tail was truncated; the log must extend cleanly.
		appendOps(t, r, []logRow{{vals: []core.Value{6, 6, 6}, aux: 9, kind: OpDelete}})
		wantRows := n + 1
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
		r2 := newDeltaLog(3, true)
		n2, err := r2.attachFile(path)
		if err != nil {
			t.Fatalf("cut=%d reopen: %v", cut, err)
		}
		if n2 != wantRows {
			t.Fatalf("cut=%d reopen: %d rows, want %d", cut, n2, wantRows)
		}
		r2.close()
	}

	// A flipped byte inside the final record fails its CRC: replay drops
	// exactly that record.
	tear := append([]byte(nil), img...)
	tear[len(tear)-6] ^= 0xff
	path := filepath.Join(dir, "torn.wal")
	if err := os.WriteFile(path, tear, 0o644); err != nil {
		t.Fatal(err)
	}
	r := newDeltaLog(3, true)
	n, err := r.attachFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if want := rowsAt(len(img)-headLen) - 1; n != want {
		t.Fatalf("corrupt tail: replayed %d rows, want %d", n, want)
	}
}

// TestWALv2UnknownRecordType pins the corrupt-tail contract for garbage
// record types: replay stops there and truncates.
func TestWALv2UnknownRecordType(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.wal")
	l := newDeltaLog(2, false)
	if _, err := l.attachFile(path); err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, []logRow{{vals: []core.Value{1, 1}, kind: OpAppend}})
	// A record with an undefined type byte but otherwise valid framing.
	if _, err := l.w.(*fileWAL).f.Write([]byte{0x7f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	r := newDeltaLog(2, false)
	n, err := r.attachFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if n != 1 {
		t.Fatalf("replayed %d rows, want 1 (unknown-type tail dropped)", n)
	}
}

// TestWALv1Replay pins the single-version contract: a version-1 log (fixed
// size append records, no CRC framing) is rejected with a descriptive error
// and left byte-for-byte untouched — never "recovered" by truncating its
// records away as a corrupt tail.
func TestWALv1Replay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.wal")
	img := append([]byte(walMagic), 1, 2, 0) // version 1, nd 2, no aux
	for _, v := range []uint32{1, 2, 3, 4, 0, 5} {
		img = binary.LittleEndian.AppendUint32(img, v)
	}
	img = append(img, 0xde, 0xad) // crash mid-append
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	l := newDeltaLog(2, false)
	n, err := l.attachFile(path)
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 attach: rows %d, err %v; want an unsupported-version error", n, err)
	}
	if n != 0 || l.rows() != 0 {
		t.Fatalf("rejected log buffered %d rows (returned %d)", l.rows(), n)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, img) {
		t.Fatalf("rejected v1 log was modified: %d bytes, was %d", len(after), len(img))
	}
}

// TestRewriteKeepsBufferOnError is the regression test for the buffer-loss
// bug: when the WAL rewrite fails (the file is gone from under the log), the
// in-memory rows must survive — they are the only copy of the pending delta.
func TestRewriteKeepsBufferOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fail.wal")
	l := newDeltaLog(2, false)
	if _, err := l.attachFile(path); err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, []logRow{
		{vals: []core.Value{1, 2}, kind: OpAppend},
		{vals: []core.Value{3, 4}, kind: OpDelete},
	})
	wantVals, _, wantKinds := logState(l)
	// Sabotage the descriptor so every file operation fails.
	if err := l.w.(*fileWAL).f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.rewrite(); err == nil {
		t.Fatal("rewrite on a closed file must fail")
	}
	gotVals, _, gotKinds := logState(l)
	if !reflect.DeepEqual(gotVals, wantVals) || !reflect.DeepEqual(gotKinds, wantKinds) {
		t.Fatalf("failed rewrite lost the buffer: vals %v vs %v, kinds %v vs %v", gotVals, wantVals, gotKinds, wantKinds)
	}
	if l.rows() != 2 {
		t.Fatalf("rows = %d, want 2", l.rows())
	}
	l.w = nil // already closed
}
