package refresh

import (
	"bytes"
	"testing"

	"ccubing/internal/core"
	"ccubing/internal/fuzzbound"
)

// FuzzWALReplay feeds arbitrary bytes to the delta log's replay as the
// contents of a WAL. Property: a rejected log is left byte-for-byte untouched;
// an accepted one keeps only a prefix of its input (the torn or corrupt tail
// is truncated, nothing is invented), and its rewritten image replays to the
// same rows and rewrites byte-identically — never a panic, never an
// allocation beyond the input's size class. Seeds: a log exercising every
// record type with each single-byte flip and each truncation, and a legacy
// version-1 image.
func FuzzWALReplay(f *testing.F) {
	seed := &memWAL{}
	l := newDeltaLog(2, true)
	if _, err := l.attach(seed, nil); err != nil {
		f.Fatal(err)
	}
	appendOps(f, l, mixedOps())
	fuzzbound.Corpus(seed.b, func(b []byte) { f.Add(b, uint8(2), true) })
	f.Add(append([]byte(walMagic), 1, 2, 0, 1, 0, 0, 0, 2, 0, 0, 0), uint8(2), false)

	f.Fuzz(func(t *testing.T, data []byte, nd uint8, hasAux bool) {
		if nd == 0 || int(nd) > core.MaxDims {
			return // the Manager only builds logs for validated relations
		}
		w := &memWAL{b: append([]byte(nil), data...)}
		l := newDeltaLog(int(nd), hasAux)
		var n int
		var err error
		fuzzbound.Check(t, len(data), func() { n, err = l.attach(w, nil) })
		if err != nil {
			if !bytes.Equal(w.b, data) {
				t.Fatalf("rejected log was modified (%d bytes, was %d): %v", len(w.b), len(data), err)
			}
			return
		}
		if len(data) > 0 && !bytes.HasPrefix(data, w.b) {
			t.Fatalf("replay kept %d bytes that are not a prefix of the %d-byte input", len(w.b), len(data))
		}
		if n != l.rows() {
			t.Fatalf("attach reported %d rows, buffer holds %d", n, l.rows())
		}
		if err := l.rewrite(); err != nil {
			t.Fatal(err)
		}
		canon := append([]byte(nil), w.b...)
		w2 := &memWAL{b: append([]byte(nil), canon...)}
		r := newDeltaLog(int(nd), hasAux)
		n2, err := r.attach(w2, nil)
		if err != nil || n2 != n {
			t.Fatalf("rewritten log replayed %d rows (err %v), want %d", n2, err, n)
		}
		if err := r.rewrite(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w2.b, canon) {
			t.Fatalf("rewrite → replay → rewrite not byte-identical (%d vs %d bytes)", len(w2.b), len(canon))
		}
	})
}
