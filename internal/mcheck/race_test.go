//go:build race

package mcheck

// raceEnabled reports a race-detector build, under which sync.Pool drops
// puts at random, so allocation counts of pooled code are not exact.
const raceEnabled = true
