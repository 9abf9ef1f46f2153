package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// Without -gridd-addr the gridd backend runs on the simulator too.
func TestObsAddrNeedsWallClockBackend(t *testing.T) {
	for _, backend := range []string{"sim", "gridd"} {
		code, _, errOut := cli(t, "-obs-addr", ":0", "-backend", backend, "-fig", "1", "-scale", "0.05")
		if code != 2 || !strings.Contains(errOut, "-obs-addr needs a wall-clock backend") {
			t.Fatalf("-backend %s: code=%d stderr=%q", backend, code, errOut)
		}
	}
}

func TestBadMetricsFormat(t *testing.T) {
	code, _, errOut := cli(t, "-metrics", "x", "-metrics-format", "xml")
	if code != 2 || !strings.Contains(errOut, "unknown metrics format") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

// dumpSeries is one line of a -metrics JSONL dump.
type dumpSeries struct {
	Name, Family, Kind string
	Points             [][2]float64 // [t_ns, value]
}

// dump runs the CLI with args and -metrics, and returns its output and
// the dump's series by name.
func dump(t *testing.T, args ...string) (string, map[string]dumpSeries) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.jsonl")
	code, out, errOut := cli(t, append(args, "-metrics", path)...)
	b, err := os.ReadFile(path)
	if code != 0 || err != nil {
		t.Fatalf("code=%d stderr=%q read: %v", code, errOut, err)
	}
	series := make(map[string]dumpSeries)
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var s dumpSeries
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%v: %s", err, line)
		}
		series[s.Name] = s
	}
	return out, series
}

// TestTimelineIsTheRecordersSeries: Figure 2's rows (t, avail-fds,
// jobs) are the dumped grid_carrier_free and grid_jobs_total points of
// the figure's cell, and the dump has one point more: the sample taken
// after the run, which under -chaos mixed at scale 1 lands past the
// window, where the table has no row.
func TestTimelineIsTheRecordersSeries(t *testing.T) {
	for _, scale := range []string{"0.1", "1 -chaos mixed"} {
		out, series := dump(t, append([]string{"-fig", "2", "-scale"}, strings.Fields(scale)...)...)
		free, jobs := series["grid_carrier_free{cell=fig2/Aloha}"].Points, series["grid_jobs_total{cell=fig2/Aloha}"].Points
		var rows int
		for _, line := range strings.Split(out, "\n") {
			var t0, f, j float64
			if n, _ := fmt.Sscan(line, &t0, &f, &j); n != 3 {
				continue
			}
			if rows >= len(free)-1 || free[rows] != [2]float64{t0 * 1e9, f} || jobs[rows] != [2]float64{t0 * 1e9, j} {
				t.Fatalf("-scale %s: row %d %q is not the recorder's point: free %v, jobs %v", scale, rows, line, free, jobs)
			}
			rows++
		}
		if rows == 0 || len(free) != rows+1 || len(jobs) != rows+1 || free[rows][0] < free[rows-1][0] {
			t.Fatalf("-scale %s: %d rows; the dump has %d and %d points, want one more each, taken after the run", scale, rows, len(free), len(jobs))
		}
	}
}

// TestReaderTimelineIsTheTrace: Figures 6 and 7 have one row per
// instant at which the figure's own process (Aloha, Ethernet) emitted a
// success or penalty event into the trace, and each row is the
// cumulative count of each kind at that instant. The tracing companions
// put the other disciplines in the same file, under other processes.
func TestReaderTimelineIsTheTrace(t *testing.T) {
	for _, tc := range []struct{ fig, proc, penalty string }{
		{"6", "Aloha", "collision"},
		{"7", "Ethernet", "defer"},
	} {
		path := filepath.Join(t.TempDir(), "x.jsonl")
		code, out, errOut := cli(t, "-fig", tc.fig, "-scale", "0.2", "-trace", path)
		b, err := os.ReadFile(path)
		if code != 0 || err != nil {
			t.Fatalf("-fig %s: code=%d stderr=%q read: %v", tc.fig, code, errOut, err)
		}
		type count struct {
			at        time.Duration
			done, pen float64
		}
		var counts []count // one per instant, cumulative
		pid := -1
		var done, pen float64
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var rec struct {
				Proc *struct {
					PID  int
					Name string
				}
				T   int64
				K   string
				PID int
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%v: %s", err, line)
			}
			if rec.Proc != nil && rec.Proc.Name == tc.proc {
				pid = rec.Proc.PID
			}
			if rec.K == "" || rec.PID != pid || rec.K != "success" && rec.K != tc.penalty {
				continue
			}
			if rec.K == "success" {
				done++
			} else {
				pen++
			}
			at := time.Duration(rec.T)
			if n := len(counts); n > 0 && counts[n-1].at == at {
				counts = counts[:n-1]
			}
			counts = append(counts, count{at, done, pen})
		}
		var rows int
		for _, line := range strings.Split(out, "\n") {
			var t0 string
			var d, p float64
			if n, _ := fmt.Sscan(line, &t0, &d, &p); n != 3 {
				continue
			}
			if rows >= len(counts) {
				t.Fatalf("-fig %s: row %d %q has no instant in the trace", tc.fig, rows, line)
			}
			c := counts[rows]
			if want := fmt.Sprintf("%.0f", c.at.Seconds()); t0 != want || d != c.done || p != c.pen {
				t.Fatalf("-fig %s: row %d %q; the trace has %v transfers and %v %s events at %v",
					tc.fig, rows, line, c.done, c.pen, tc.penalty, c.at)
			}
			rows++
		}
		if rows == 0 || rows != len(counts) {
			t.Fatalf("-fig %s: %d rows for %d instants in the trace", tc.fig, rows, len(counts))
		}
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
	_, series := dump(t, "-scale", "0.05", "-trace-summary")
	backwards := 0
	for name, s := range series {
		for i, pts := 1, s.Points; i < len(pts); i++ {
			if pts[i][0] < pts[i-1][0] {
				if backwards++; backwards <= 5 {
					t.Errorf("%s: t=%v follows t=%v", name, pts[i][0], pts[i-1][0])
				}
				break
			}
		}
	}
	if backwards > 0 {
		t.Errorf("%d of %d series have time running backwards", backwards, len(series))
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
		_, series := dump(t, "-fig", fig, "-scale", "0.05")
		kinds := make(map[string]string)
		for _, s := range series {
			kinds[s.Family] = s.Kind
		}
		for fam, kind := range kinds {
			if (kind == "counter") != strings.HasSuffix(fam, "_total") {
				t.Errorf("fig %s: family %s has kind %s", fig, fam, kind)
			}
		}
	}
}
