//go:build !race

package modchecker

// raceEnabled reports whether this test binary was built with the race
// detector, whose sync.Pool deliberately drops a quarter of all Puts.
const raceEnabled = false
