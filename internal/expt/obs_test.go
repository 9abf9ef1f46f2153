package expt

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/griddclient"
	"repro/internal/lease"
	"repro/internal/obs"
)

// dumpFig1 runs Fig1 with the flight recorder armed and returns the
// JSONL dump plus the figure table.
func dumpFig1(t *testing.T, parallel int) (string, any) {
	t.Helper()
	reg := obs.New()
	opt := Options{Seed: 3, Scale: 0.05, Parallel: parallel, Obs: reg}
	tbl := Fig1(opt)
	var b strings.Builder
	if err := reg.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String(), tbl
}

// TestObsParallelDumpIdentical is the registry-level half of the
// parallel determinism contract: the same seed must produce a
// byte-identical metrics dump whether the sweep ran serially or on
// the worker pool (per-cell registries merged in cell order).
func TestObsParallelDumpIdentical(t *testing.T) {
	d1, t1 := dumpFig1(t, 1)
	d8, t8 := dumpFig1(t, 8)
	if d1 != d8 {
		t.Fatalf("obs dump differs between -parallel 1 and 8:\nserial %d bytes, parallel %d bytes", len(d1), len(d8))
	}
	if !reflect.DeepEqual(t1, t8) {
		t.Fatalf("figure table differs between -parallel 1 and 8")
	}
	if !strings.Contains(d1, MCarrierOccupancy) || !strings.Contains(d1, lease.MGrants) {
		t.Fatalf("dump missing carrier/lease series:\n%.400s", d1)
	}
}

// TestObsDoesNotPerturbFigures asserts the sampler is a read-only
// observer: the same seed yields the same figure with the recorder
// armed or not. Figures 2 and 3 read a registry of their own when Obs
// is nil.
func TestObsDoesNotPerturbFigures(t *testing.T) {
	for i, fig := range []func(Options) any{
		func(o Options) any { return Fig1(o) },
		func(o Options) any { return Fig2(o) },
		func(o Options) any { return Fig3(o) },
	} {
		opt := Options{Seed: 5, Scale: 0.05, Parallel: 1}
		plain := fig(opt)
		opt.Obs = obs.New()
		if armed := fig(opt); !reflect.DeepEqual(plain, armed) {
			t.Fatalf("arming the flight recorder changed Figure %d:\nplain %+v\narmed %+v", i+1, plain, armed)
		}
	}
}

// TestObsProgressReports asserts the sweep runner reports each cell
// exactly once with a growing event count.
func TestObsProgressReports(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	var maxEv int64
	opt := Options{Seed: 1, Scale: 0.05, Parallel: 2, Obs: obs.New()}
	opt.Progress = func(done, total int, events int64) {
		// Calls arrive in completion order from worker goroutines, so
		// only per-call facts are asserted here, not ordering.
		mu.Lock()
		defer mu.Unlock()
		if total != 36 { // 3 disciplines x 12 sweep points
			t.Errorf("total = %d, want 36", total)
		}
		dones = append(dones, done)
		if events > maxEv {
			maxEv = events
		}
	}
	Fig1(opt)
	if len(dones) != 36 {
		t.Fatalf("progress called %d times, want 36", len(dones))
	}
	seen := make(map[int]bool)
	for _, d := range dones {
		if seen[d] {
			t.Fatalf("done=%d reported twice", d)
		}
		seen[d] = true
	}
	if maxEv == 0 {
		t.Fatal("no engine events reported")
	}
}

// ledgerScenario is one short pass over both ledgers: a lease acquired
// and released, then a window reserved, claimed and released.
func ledgerScenario(p core.Proc, ctx context.Context, book *lease.Book) error {
	l, err := book.Tenure().Acquire(p, ctx, "client", 1)
	if err != nil {
		return err
	}
	l.Release()
	r, err := book.Reserve(p, "client", p.Elapsed(), time.Minute, 1)
	if err != nil {
		return err
	}
	if _, err := r.Claim(p, ctx); err != nil {
		return err
	}
	r.Release()
	return nil
}

// ledgerFamilies reads the grid_lease_* and grid_book_* families out of
// a Prometheus text body: for each, its kind, its label keys apart from
// cell, and the sum of its samples.
func ledgerFamilies(t *testing.T, body string) map[string]string {
	t.Helper()
	kinds := make(map[string]string)
	keys := make(map[string]string)
	sums := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(typ, " ")
			kinds[name] = kind
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(strings.TrimSuffix(series, "}"), "{")
		var ks []string
		for _, kv := range strings.Split(labels, ",") {
			if k, _, _ := strings.Cut(kv, "="); k != "cell" {
				ks = append(ks, k)
			}
		}
		keys[name] = strings.Join(ks, ",")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		sums[name] += v
	}
	out := make(map[string]string)
	for name, kind := range kinds {
		if strings.HasPrefix(name, "grid_lease_") || strings.HasPrefix(name, "grid_book_") {
			out[name] = fmt.Sprintf("%s{%s} %g", kind, keys[name], sums[name])
		}
	}
	return out
}

// TestGriddLedgerFamiliesMatchSimAndLive: one lease-and-booking
// scenario on a sim cell, a live cell and an in-process daemon exposes
// the same ledger families on all three, with the same kinds, the same
// label keys (apart from the cell label, which only sweeps need) and
// the same counts. Each ledger registers itself (lease.Manager.Observe,
// lease.Book.Observe), so this holds by construction; the test keeps it
// so.
func TestGriddLedgerFamiliesMatchSimAndLive(t *testing.T) {
	got := make(map[string]map[string]string)
	for _, backend := range []string{BackendSim, BackendLive} {
		reg := obs.New()
		var book *lease.Book
		var err error
		Options{Backend: backend, Obs: reg}.cell("ledger/"+backend, 1, time.Minute, nil, nil).run(scenario{
			substrate: func(e core.Backend, _ newCarrier) chaos.Targets {
				book = lease.NewBook(e, "fds", 2)
				return chaos.Targets{}
			},
			gauges: func(sc *obs.Scope) { obsBook(sc, book, "fds") },
			clients: func(e core.Backend, ctx context.Context) {
				e.Spawn("client", func(p core.Proc) { err = ledgerScenario(p, ctx, book) })
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		var b strings.Builder
		if err := reg.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		got[backend] = ledgerFamilies(t, b.String())
	}

	hs := httptest.NewServer(gridd.NewServer(gridd.Config{Resources: []gridd.ResourceConfig{{Name: "fds", Capacity: 2}}}).Handler())
	defer hs.Close()
	ctx := context.Background()
	c := griddclient.New(hs.URL, 1)
	l, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "client", Units: 1})
	if err == nil {
		err = l.Release(ctx)
	}
	var rr gridd.ReserveReply
	if err == nil {
		rr, err = c.Reserve(ctx, gridd.ReserveRequest{Resource: "fds", Holder: "client", TenureNS: int64(time.Minute), Units: 1})
	}
	if err == nil {
		l, err = c.Claim(ctx, gridd.ClaimRequest{Resource: "fds", BookingID: rr.BookingID})
	}
	if err == nil {
		err = l.Release(ctx)
	}
	if err != nil {
		t.Fatalf("gridd: %v", err)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got[BackendGridd] = ledgerFamilies(t, string(body))

	sim := got[BackendSim]
	if len(sim) != 17 || sim[lease.MGrants] != "counter{resource} 2" || sim[lease.MBookAdmits] != "counter{resource} 1" {
		t.Fatalf("sim ledger families = %v; want 17, with 2 grants and 1 admit", sim)
	}
	for _, backend := range []string{BackendLive, BackendGridd} {
		if !reflect.DeepEqual(got[backend], sim) {
			t.Errorf("%s ledger families differ from sim:\n%s: %v\nsim: %v", backend, backend, got[backend], sim)
		}
	}
}
