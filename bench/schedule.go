package main

import (
	"math/rand"
	"time"
)

// arrivals builds an open-loop send schedule: n due times, as offsets
// from the start of the phase, whose gaps are drawn uniformly from
// [0.5, 1.5) of the mean gap 1/rate. It is a pure function of its
// arguments and is built before the clock starts, so the generator
// never decides at run time when to send.
func arrivals(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	gap := float64(time.Second) / rate
	due := make([]time.Duration, n)
	at := 0.0
	for i := range due {
		at += gap * (0.5 + rng.Float64())
		due[i] = time.Duration(at)
	}
	return due
}

// picks draws n values in [0, k) from the seed: which resource or
// holder name each job uses.
func picks(seed int64, n, k int) []uint8 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(k))
	}
	return out
}
