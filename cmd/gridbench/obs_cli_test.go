package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestObsAddrNeedsWallClockBackend(t *testing.T) {
	code, _, errOut := cli(t, "-obs-addr", ":0", "-fig", "1", "-scale", "0.05")
	if code != 2 || !strings.Contains(errOut, "-obs-addr needs a wall-clock backend") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestBadMetricsFormat(t *testing.T) {
	code, _, errOut := cli(t, "-metrics", "x", "-metrics-format", "xml")
	if code != 2 || !strings.Contains(errOut, "unknown metrics format") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

func TestNegativeMetricsInterval(t *testing.T) {
	code, _, errOut := cli(t, "-metrics", "x", "-metrics-interval", "-5s")
	if code != 2 || !strings.Contains(errOut, "negative metrics interval") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

// TestMetricsDumpFormats runs one small figure per dump format and
// checks each file carries that format's signature.
func TestMetricsDumpFormats(t *testing.T) {
	for _, tc := range []struct {
		format, want string
	}{
		{"jsonl", `"kind":`},
		{"csv", "series,t_ns,value\n"},
		{"prom", "# TYPE "},
	} {
		path := filepath.Join(t.TempDir(), "metrics."+tc.format)
		code, _, errOut := cli(t, "-fig", "1", "-scale", "0.05",
			"-metrics", path, "-metrics-format", tc.format)
		if code != 0 {
			t.Fatalf("%s: code=%d stderr=%q", tc.format, code, errOut)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), tc.want) {
			t.Errorf("%s dump missing %q:\n%.400s", tc.format, tc.want, b)
		}
		if !strings.Contains(string(b), "grid_engine_events_total") {
			t.Errorf("%s dump missing engine events family", tc.format)
		}
	}
}

// TestTraceQuantilesFlag checks the -trace-quantiles table rides along
// after the figure without disturbing it.
func TestTraceQuantilesFlag(t *testing.T) {
	code, out, errOut := cli(t, "-fig", "7", "-scale", "0.2", "-trace-quantiles")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{"==== Trace quantiles ====", "p50", "p99", "holding", "cs-wait"} {
		if !strings.Contains(out, want) {
			t.Fatalf("out missing %q:\n%s", want, out)
		}
	}
}

// TestProgressFlag checks -progress emits sweep reports on stderr and
// leaves stdout untouched.
func TestProgressFlag(t *testing.T) {
	code, out, errOut := cli(t, "-fig", "1", "-scale", "0.05", "-progress")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(errOut, "36/36 cells") {
		t.Fatalf("stderr missing final progress line:\n%s", errOut)
	}
	if strings.Contains(out, "cells,") {
		t.Fatal("progress leaked onto stdout")
	}
}

// promNonzero reports whether the Prometheus text body has at least one
// sample of the family with a nonzero value.
func promNonzero(body, family string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, family) || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil && v != 0 {
			return true
		}
	}
	return false
}

// TestLiveObsEndpointMidRun is the acceptance check for the live
// observability endpoint: while a live-backend figure is in flight,
// /metrics must serve nonzero carrier-occupancy and lease gauges and
// /healthz must answer ok.
func TestLiveObsEndpointMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-backend run")
	}
	// Reserve a free port, release it, and hand it to the CLI; the gap
	// is benign in a test process that opens no other listeners.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan struct{})
	var code int
	var errOut bytes.Buffer
	go func() {
		defer close(done)
		var out bytes.Buffer
		code = run([]string{"-backend", "live", "-timescale", "200",
			"-fig", "1", "-scale", "0.05", "-obs-addr", addr}, &out, &errOut)
	}()

	get := func(path string) (string, bool) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", false
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err == nil && resp.StatusCode == http.StatusOK
	}

	var sawOccupancy, sawLease, sawHealth bool
	deadline := time.Now().Add(2 * time.Minute)
poll:
	for !(sawOccupancy && sawLease && sawHealth) {
		select {
		case <-done:
			break poll
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			break poll
		}
		if body, ok := get("/metrics"); ok {
			sawOccupancy = sawOccupancy || promNonzero(body, "grid_carrier_occupancy")
			sawLease = sawLease || promNonzero(body, "grid_lease_grants_total")
		}
		if body, ok := get("/healthz"); ok {
			sawHealth = sawHealth || strings.Contains(body, `"status":"ok"`) &&
				strings.Contains(body, `"backend":"live"`)
		}
	}
	<-done
	if code != 0 {
		t.Fatalf("live run failed: code=%d stderr=%q", code, errOut.String())
	}
	if !sawOccupancy || !sawLease || !sawHealth {
		t.Fatalf("mid-run endpoint never showed occupancy=%v lease=%v health=%v",
			sawOccupancy, sawLease, sawHealth)
	}
}

// TestMetricsTimestampsNeverDecrease runs every default figure, with
// their trace companions, at a scale where neighbouring sweep points
// collapse onto one population, and requires every dumped series to be
// one cell's timeline: no timestamp lower than the one before it. Two
// cells sharing a label are merged into one series whose clock restarts
// mid-way.
func TestMetricsTimestampsNeverDecrease(t *testing.T) {
	if testing.Short() {
		t.Skip("all-figure run; skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "m.jsonl")
	code, _, errOut := cli(t, "-scale", "0.05", "-trace-summary", "-metrics", path)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	series, backwards := 0, 0
	dec := json.NewDecoder(f)
	for dec.More() {
		var s struct {
			Name   string       `json:"name"`
			Points [][2]float64 `json:"points"`
		}
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		series++
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i][0] < s.Points[i-1][0] {
				if backwards++; backwards <= 5 {
					t.Errorf("%s: t=%v follows t=%v", s.Name, s.Points[i][0], s.Points[i-1][0])
				}
				break
			}
		}
	}
	if series == 0 {
		t.Fatal("metrics dump is empty")
	}
	if backwards > 0 {
		t.Errorf("%d of %d series have time running backwards", backwards, series)
	}
}

// TestMetricsCounterKindIffTotal holds every dumped family to the
// Prometheus naming rule: kind counter exactly when the name ends in
// _total. A monotone count registered as a gauge (or a level named
// like a count) fails it. The figures cover every scenario's families:
// submit (1), buffer (4), reservation (res), lossy wire (net) and the
// engine's timer wheel (scale).
func TestMetricsCounterKindIffTotal(t *testing.T) {
	for _, fig := range []string{"1", "4", "res", "net", "scale"} {
		path := filepath.Join(t.TempDir(), "m.jsonl")
		code, _, errOut := cli(t, "-fig", fig, "-scale", "0.05", "-metrics", path)
		if code != 0 {
			t.Fatalf("fig %s: code=%d stderr=%q", fig, code, errOut)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		kinds := make(map[string]string)
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var s struct{ Family, Kind string }
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatalf("fig %s: %v: %s", fig, err, line)
			}
			kinds[s.Family] = s.Kind
		}
		if len(kinds) == 0 {
			t.Fatalf("fig %s: empty dump", fig)
		}
		for fam, kind := range kinds {
			if (kind == "counter") != strings.HasSuffix(fam, "_total") {
				t.Errorf("fig %s: family %s has kind %s", fig, fam, kind)
			}
		}
	}
}
