//go:build race

package ccubing

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate skips under it, where the instrumentation allocates.
const raceEnabled = true
