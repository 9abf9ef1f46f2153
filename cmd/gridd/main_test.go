package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gridd"
	"repro/internal/griddclient"
)

func TestParseSpec(t *testing.T) {
	rc, err := parseSpec("fds:96:300ms")
	if err != nil || rc.Name != "fds" || rc.Capacity != 96 || rc.Quantum != 300*time.Millisecond {
		t.Fatalf("parseSpec = %+v, %v", rc, err)
	}
	rc, err = parseSpec("pool:4:unfenced")
	if err != nil || !rc.Unfenced || rc.Quantum != 0 {
		t.Fatalf("unfenced spec = %+v, %v", rc, err)
	}
	for _, bad := range []string{"", "fds", "fds:zero", ":4", "fds:-1", "fds:4:bogus"} {
		if _, err := parseSpec(bad); err == nil {
			t.Fatalf("parseSpec(%q) accepted", bad)
		}
	}
}

func TestBadFlagsExit2(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-res", "nonsense"}, &out, &errb, nil); rc != 2 {
		t.Fatalf("bad -res exit = %d; want 2", rc)
	}
	if rc := run([]string{"-no-such-flag"}, &out, &errb, nil); rc != 2 {
		t.Fatalf("bad flag exit = %d; want 2", rc)
	}
}

// TestSIGTERMDrainsMidFlight is the graceful-shutdown contract end to
// end: a daemon with a lease in flight gets SIGTERM, refuses new
// acquires with the typed retriable error, gives the holder the drain
// budget, then force-revokes and exits 0.
func TestSIGTERMDrainsMidFlight(t *testing.T) {
	ready := make(chan string, 1)
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	// Capacity 1: the wedged holder has the only unit, so a "late"
	// acquire that beats the signal is refused busy, never granted a
	// second lease for the drain to revoke.
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-drain", "150ms", "-res", "fds:1:1h"}, &out, &errb, ready)
	}()
	var url string
	select {
	case url = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("daemon never bound its listener")
	}

	c := griddclient.New(url, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "wedged", Units: 1}); err != nil {
		t.Fatalf("acquire: %v", err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	// While draining, the listener still answers — with the typed
	// retriable verdict, not a connection error.
	deadline := time.Now().Add(2 * time.Second)
	sawDraining := false
	for time.Now().Before(deadline) && !sawDraining {
		_, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "late", Units: 1})
		var ue *griddclient.UnavailableError
		if errors.As(err, &ue) && ue.Reason == "draining" {
			sawDraining = true
		}
		time.Sleep(5 * time.Millisecond)
	}

	var rc int
	select {
	case rc = <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never exited after SIGTERM")
	}
	if rc != 0 {
		t.Fatalf("exit code %d; want 0\nstderr: %s", rc, errb.String())
	}
	if !sawDraining {
		t.Fatalf("never observed the draining verdict before exit\nstdout: %s", out.String())
	}
	log := out.String()
	for _, want := range []string{"draining", "drain revoked fds lease", "drained, 1 revoked"} {
		if !strings.Contains(log, want) {
			t.Fatalf("stdout missing %q:\n%s", want, log)
		}
	}
}
