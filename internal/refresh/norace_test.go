//go:build !race

package refresh

const raceEnabled = false
