package mcheck

import "repro/internal/chaos"

// The random explorer's generator: a SplitMix64 stream over chaos.Mix,
// deterministic and seedable. Schedule i of a random exploration derives
// its own stream from (seed, i), so any single sample replays without
// regenerating the ones before it.

type randState struct{ s uint64 }

// newRand builds the stream for sample i of a seed.
func newRand(seed, i uint64) *randState {
	return &randState{s: chaos.Mix(seed) ^ chaos.Mix(i+0xcbd26cae74724cf4)}
}

func (r *randState) next() uint64 {
	v := chaos.Mix(r.s)
	r.s += 0x9e3779b97f4a7c15
	return v
}
