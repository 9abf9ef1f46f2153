//go:build !race

package griddclient_test

const raceEnabled = false
