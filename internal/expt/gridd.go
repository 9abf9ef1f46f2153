package expt

import (
	"net/http"

	"repro/internal/griddclient"
)

// ---------------------------------------------------------------------
// The gridd backend: the paper's scenarios with the FD table on a daemon
// ---------------------------------------------------------------------
//
// BackendGridd runs the same submit and lease scenarios as sim and
// live, the same code, but the FD table they contend for lives in a
// gridd daemon (internal/gridd, cmd/gridd): carrier sense is a GET,
// acquisition a POST granting a fenced lease, and the watchdog that
// revokes wedged holders is the daemon's. The table is a
// griddclient.Carrier (cell.carrier).
//
// By default each cell runs on the simulator with its own daemon on the
// cell's engine, and the client's transport is the daemon's codec
// (gridd.Server.RoundTrip): every operation crosses both JSON codecs,
// in process, on virtual time, so a gridd cell replays from its seed
// and equals the sim cell of the same seed. With Options.GriddURL the
// cell runs on a live engine at GriddTimescale and the table sits on
// that daemon, across a real socket.
//
// The differential harness (diff_test.go) holds these cells to the
// sim cells' exact results.

// BackendGridd names the networked backend: the scenarios with their
// FD table on a gridd daemon.
const BackendGridd = "gridd"

// Backends lists every registered backend name, in presentation
// order. cmd/gridbench validates -backend against this list, so a new
// backend registered here is automatically accepted (and advertised)
// by the CLI.
func Backends() []string {
	return []string{BackendSim, BackendLive, BackendGridd}
}

// KnownBackend reports whether name is a registered backend. The
// empty string is the default (sim).
func KnownBackend(name string) bool {
	if name == "" {
		return true
	}
	for _, b := range Backends() {
		if b == name {
			return true
		}
	}
	return false
}

// GriddTimescale is the default compression for gridd cells against a
// daemon at Options.GriddURL: 1 virtual second per 40 real
// milliseconds. Far gentler than the in-process live default, because
// every load-bearing virtual duration must map to real time comfortably
// above the Go timer floor PLUS an HTTP round-trip on the socket (see
// EXPERIMENTS.md, "Choosing a timescale for real sockets").
const GriddTimescale = 25.0

func (o Options) griddTimescale() float64 {
	if o.Timescale > 0 {
		return o.Timescale
	}
	return GriddTimescale
}

// inProcess returns a client whose round trips tr serves on the
// caller's goroutine: a gridd.Server's codec, or a tripper around one.
// Its durations are the daemon's own, so it needs no timescale.
func inProcess(tr http.RoundTripper) *griddclient.Client {
	c := griddclient.New("http://gridd", 1)
	c.HTTP = &http.Client{Transport: tr}
	return c
}
