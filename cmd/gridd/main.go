// Command gridd is the networked service backend: a standalone HTTP
// daemon hosting the paper's contended resources — the schedd FD
// table, fsbuffer occupancy, replica service lanes — behind the wire
// protocol in internal/gridd, so discipline clients (gridbench
// -backend=gridd, internal/griddclient) contend over a real socket.
//
// SIGTERM or SIGINT begins a graceful drain: new acquires and
// reservations are refused with a typed retriable error, in-flight
// grants get -drain of wall time to land their releases, and whatever
// remains is revoked in (deadline, seq) order before the process
// exits — the same order the live engine fires leftover watchdogs in.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/gridd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// resSpecs collects repeatable -res flags.
type resSpecs []string

func (r *resSpecs) String() string     { return strings.Join(*r, ",") }
func (r *resSpecs) Set(s string) error { *r = append(*r, s); return nil }

// parseSpec reads one -res value: name:capacity[:quantum][:unfenced].
func parseSpec(spec string) (gridd.ResourceConfig, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 {
		return gridd.ResourceConfig{}, fmt.Errorf("res spec %q: want name:capacity[:quantum][:unfenced]", spec)
	}
	rc := gridd.ResourceConfig{Name: parts[0]}
	if rc.Name == "" {
		return rc, fmt.Errorf("res spec %q: empty name", spec)
	}
	cap, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || cap <= 0 {
		return rc, fmt.Errorf("res spec %q: bad capacity %q", spec, parts[1])
	}
	rc.Capacity = cap
	for _, p := range parts[2:] {
		if p == "unfenced" {
			rc.Unfenced = true
			continue
		}
		d, err := time.ParseDuration(p)
		if err != nil {
			return rc, fmt.Errorf("res spec %q: bad field %q", spec, p)
		}
		rc.Quantum = d
	}
	return rc, nil
}

// defaultResources is the paper's resource set: the schedd FD table,
// fsbuffer occupancy, and the three single-lane replica services. The
// schedd that crashes when the table runs dry is the client's.
func defaultResources() []gridd.ResourceConfig {
	return []gridd.ResourceConfig{
		{Name: "fds", Capacity: 96, Quantum: 30 * time.Second},
		{Name: "buffer", Capacity: 40, Quantum: 30 * time.Second},
		{Name: "xxx", Capacity: 1, Quantum: 30 * time.Second},
		{Name: "yyy", Capacity: 1, Quantum: 30 * time.Second},
		{Name: "zzz", Capacity: 1, Quantum: 30 * time.Second},
	}
}

// Bounds on what a silent client can hold: a connection that never
// finishes its request header, and a keep-alive connection nobody
// uses. There is deliberately no ReadTimeout or WriteTimeout — a parked
// acquire is a long poll, and those would cut it.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// run is main minus the exit call, testable in-process. When ready is
// non-nil the daemon's base URL is sent once the listener is bound.
func run(argv []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("gridd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9123", "listen address (host:port; port 0 picks a free one)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown budget for in-flight grants")
	var specs resSpecs
	fs.Var(&specs, "res", "resource spec name:capacity[:quantum][:unfenced] (repeatable; default: the paper set)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	var cfg gridd.Config
	if len(specs) == 0 {
		cfg.Resources = defaultResources()
	}
	for _, spec := range specs {
		rc, err := parseSpec(spec)
		if err != nil {
			fmt.Fprintf(stderr, "gridd: %v\n", err)
			return 2
		}
		cfg.Resources = append(cfg.Resources, rc)
	}

	srv := gridd.NewServer(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "gridd: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	// Catch signals before announcing the listener: a SIGTERM sent the
	// moment a supervisor reads "listening on" must drain, not kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	fmt.Fprintf(stdout, "gridd: listening on http://%s (%d resources)\n", ln.Addr(), len(cfg.Resources))
	if ready != nil {
		ready <- "http://" + ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "gridd: %v\n", err)
			return 1
		}
		return 0
	case sig := <-sigc:
		fmt.Fprintf(stdout, "gridd: %v: draining (budget %v)\n", sig, *drain)
	}

	// Drain order matters: the resource layer starts refusing new work
	// with the typed retriable verdict while the listener still
	// answers, so in-flight holders can land their releases; only then
	// does the HTTP server close.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	recs := srv.Shutdown(ctx)
	cancel()
	for _, r := range recs {
		fmt.Fprintf(stdout, "gridd: drain revoked %s lease %d (holder %s)\n", r.Resource, r.LeaseID, r.Holder)
	}
	hctx, hcancel := context.WithTimeout(context.Background(), time.Second)
	_ = hs.Shutdown(hctx)
	hcancel()
	fmt.Fprintf(stdout, "gridd: drained, %d revoked\n", len(recs))
	return 0
}
