//go:build race

package griddclient_test

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation counts are not exact under it.
const raceEnabled = true
