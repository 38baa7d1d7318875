//go:build race

package refresh

// raceEnabled reports whether the race detector is compiled in. Exact
// allocation gates skip under -race: the instrumentation itself allocates, so
// AllocsPerRun counts would measure the detector, not the code.
const raceEnabled = true
