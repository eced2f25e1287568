//go:build race

package engine

// raceEnabled reports that the race detector is compiled in. sync.Pool then
// drops a quarter of all Puts on purpose, so pooled scratch is reallocated
// and allocation counts of pool users mean nothing.
const raceEnabled = true
