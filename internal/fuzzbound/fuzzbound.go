// Package fuzzbound holds what the fuzz targets of the byte-level parsers
// (store snapshot, cube snapshot, WAL replay, partial frame) share: the seed
// corpus shape and the allocation property — a parser may allocate in
// proportion to the bytes it was actually given, never to a size the input
// merely declares.
package fuzzbound

import (
	"runtime"
	"testing"
)

// Check runs parse and fails t when it allocated beyond the size class of an
// inputLen-byte input: a per-byte factor generous enough for decoded
// structures (a 16-byte directory entry for an empty cuboid group costs a
// few hundred bytes of bookkeeping), plus fixed slack for what a parser
// allocates whatever it is given (a loaded cube's result cache, say). A
// declared size turned straight into a make() overshoots both by orders of
// magnitude.
func Check(t testing.TB, inputLen int, parse func()) {
	t.Helper()
	const perByte, slack = 1 << 10, 8 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parse()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(inputLen)*perByte+slack; got > limit {
		t.Fatalf("parsing %d input bytes allocated %d bytes (limit %d)", inputLen, got, limit)
	}
}

// Corpus hands add the seed set the every-byte-flip and every-truncation
// tests walk: raw itself, raw with each single byte inverted, and each proper
// prefix of raw.
func Corpus(raw []byte, add func([]byte)) {
	add(raw)
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		add(mut)
		add(raw[:i])
	}
}
