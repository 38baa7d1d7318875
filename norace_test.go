//go:build !race

package ccubing

const raceEnabled = false
