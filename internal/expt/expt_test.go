package expt

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/lease"
)

// These tests assert the paper's qualitative claims — who wins, by
// roughly what factor, where the collapse points fall — on the same
// harness that regenerates the figures.

func TestFig1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-population sweep; skipped in -short")
	}
	window := SubmitWindow
	// jobsAt runs n submitters of discipline d with paper defaults.
	jobsAt := func(d core.Discipline, n int) int64 {
		return submitCell(Options{}.cell("submit", 1, window, nil, nil), n, submitArm{sub: condor.DefaultSubmitterConfig(d)}).cl.Schedd.Jobs
	}
	peak := jobsAt(core.Ethernet, 50)
	if peak < 500 {
		t.Fatalf("peak throughput = %d, implausibly low", peak)
	}
	fixedHigh := jobsAt(core.Fixed, 475)
	alohaHigh := jobsAt(core.Aloha, 475)
	ethHigh := jobsAt(core.Ethernet, 475)

	// "The fixed client fails completely above a load of 400 submitters."
	if fixedHigh > peak/10 {
		t.Errorf("Fixed at 475 = %d, want < 10%% of peak %d", fixedHigh, peak)
	}
	// "The Aloha client settles into an unstable throughput ... but
	// continues to operate as load increases."
	if alohaHigh <= fixedHigh || alohaHigh == 0 {
		t.Errorf("Aloha at 475 = %d, want nonzero and above Fixed %d", alohaHigh, fixedHigh)
	}
	// "The Ethernet client maintains about 50 percent of peak
	// performance under load."
	if ethHigh < peak*4/10 || ethHigh > peak*8/10 {
		t.Errorf("Ethernet at 475 = %d, want 40-80%% of peak %d", ethHigh, peak)
	}
	if ethHigh <= alohaHigh {
		t.Errorf("Ethernet %d not above Aloha %d under load", ethHigh, alohaHigh)
	}
	// Below the collapse point all disciplines behave alike.
	fLow := jobsAt(core.Fixed, 200)
	eLow := jobsAt(core.Ethernet, 200)
	if diff := fLow - eLow; diff > eLow/10 || diff < -eLow/10 {
		t.Errorf("below contention Fixed %d vs Ethernet %d should match", fLow, eLow)
	}
}

// TestSubmitCellLedgerRowPerSubmitter: in a Figure 1 cell of every
// discipline, the FD ledger holds one row per submitter, plus the
// schedd's. The ledger keys holders by process name, so submitters
// sharing a name would fold into one row, and the starvation
// statistics read off the ledger would see one client.
func TestSubmitCellLedgerRowPerSubmitter(t *testing.T) {
	opt := Options{Scale: 0.1}
	const n = 12
	for _, d := range core.Disciplines {
		c := opt.cell("fig1", 1, opt.scaleD(SubmitWindow), nil, nil)
		r := submitCell(c, n, scaledArm(opt, d))
		var got []string
		for _, row := range r.cl.FDs.(*lease.Manager).Clients() {
			got = append(got, row.Holder)
		}
		want := []string{"schedd"}
		for i := 0; i < n; i++ {
			want = append(want, fmt.Sprintf("submitter-%d", i))
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: FD ledger rows %v, want %v", d, got, want)
		}
	}
}

func TestFig2AlohaTimelineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("400-client timeline; skipped in -short")
	}
	tl := Fig2(Options{})
	// "The Aloha clients immediately consume all of the FDs": the FD
	// series must touch near-exhaustion at some point.
	if tl.FDs.Min() > 8192/10 {
		t.Errorf("FD minimum = %v, want near zero", tl.FDs.Min())
	}
	// "At several points, the number of available FDs spikes upwards.
	// This is due to the schedd itself failing."
	if tl.Crashes < 2 {
		t.Errorf("Crashes = %d, want repeated schedd failures", tl.Crashes)
	}
	if tl.FDs.Max() < 8000 {
		t.Errorf("FD spikes reach only %v; crashes should free nearly all", tl.FDs.Max())
	}
	if tl.Jobs.Last().V == 0 {
		t.Error("Aloha jobs = 0; should hobble along")
	}
}

func TestFig3EthernetTimelineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("400-client timeline; skipped in -short")
	}
	a := Fig2(Options{})
	e := Fig3(Options{})
	// "The Ethernet client attempts to preserve a critical value of
	// file descriptors": no crashes, and steadily more jobs than Aloha.
	if e.Crashes != 0 {
		t.Errorf("Ethernet Crashes = %d, want 0", e.Crashes)
	}
	if e.Jobs.Last().V <= a.Jobs.Last().V {
		t.Errorf("Ethernet jobs %v not above Aloha %v", e.Jobs.Last().V, a.Jobs.Last().V)
	}
	// "The result is that an acceptable number of clients are
	// continually running, keeping the FDs at a high utilization": the
	// series must hold near the 1000-FD threshold — never starving the
	// schedd, never drifting far above.
	if min := e.FDs.Min(); min < 60 {
		t.Errorf("Ethernet FD minimum = %v: housekeeping nearly starved", min)
	}
	if mean := e.FDs.Mean(); mean < 600 || mean > 2500 {
		t.Errorf("Ethernet FD mean = %v, want held near the 1000 threshold", mean)
	}
}

func TestFig45BufferShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("10-minute buffer sweep; skipped in -short")
	}
	bs := RunBufferSweep(Options{})
	cols := map[string]metricsCols{}
	for i, c := range bs.Consumed.Cols {
		cols[c.Name] = metricsCols{consumed: c.Vals, collisions: bs.Collisions.Cols[i].Vals}
	}
	last := len(bs.Consumed.Xs) - 1
	eth, aloha, fixed := cols["Ethernet"], cols["Aloha"], cols["Fixed"]

	// Fig 4: "the fixed and Aloha disciplines do not scale. The
	// Ethernet approach scales acceptably, falling off only slightly."
	if drop := eth.consumed[0] - eth.consumed[last]; drop > eth.consumed[0]*0.25 {
		t.Errorf("Ethernet throughput fell %v from %v: more than 'slightly'", drop, eth.consumed[0])
	}
	if fixed.consumed[last] > eth.consumed[last]*0.5 {
		t.Errorf("Fixed at 50 producers = %v, want well below Ethernet %v", fixed.consumed[last], eth.consumed[last])
	}
	if fixed.consumed[last] >= fixed.consumed[0]*0.5 {
		t.Errorf("Fixed should collapse with producers: %v -> %v", fixed.consumed[0], fixed.consumed[last])
	}
	if aloha.consumed[last] >= eth.consumed[last] {
		t.Errorf("Aloha %v should trail Ethernet %v under load", aloha.consumed[last], eth.consumed[last])
	}
	// Fig 5: collision ordering Fixed >> Aloha >> Ethernet.
	if fixed.collisions[last] < 5*aloha.collisions[last] {
		t.Errorf("Fixed collisions %v not >> Aloha %v", fixed.collisions[last], aloha.collisions[last])
	}
	if aloha.collisions[last] < 3*eth.collisions[last] {
		t.Errorf("Aloha collisions %v not >> Ethernet %v", aloha.collisions[last], eth.collisions[last])
	}
}

type metricsCols struct {
	consumed   []float64
	collisions []float64
}

func TestFig67ReaderShapes(t *testing.T) {
	f6 := Fig6(Options{})
	f7 := Fig7(Options{})
	// "the Aloha clients occasionally all fall on the single black hole
	// server and must wait the full sixty seconds."
	if f6.TotalCollisions == 0 {
		t.Error("Aloha readers recorded no black-hole collisions")
	}
	// "The Ethernet clients are much more effective and suffer from no
	// such hiccups."
	if f7.TotalCollisions != 0 {
		t.Errorf("Ethernet collisions = %d, want 0", f7.TotalCollisions)
	}
	if f7.TotalDeferrals == 0 {
		t.Error("Ethernet readers never deferred")
	}
	if f7.TotalTransfers <= f6.TotalTransfers {
		t.Errorf("Ethernet transfers %d not above Aloha %d", f7.TotalTransfers, f6.TotalTransfers)
	}
	// Timeline series are cumulative and non-empty.
	if f6.Transfers.Len() == 0 || f7.Transfers.Len() == 0 {
		t.Error("empty transfer series")
	}
}

func TestScaledDownRunsAreFast(t *testing.T) {
	start := time.Now()
	tl := Fig3(Options{Scale: 0.1})
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("scaled timeline took %v", wall)
	}
	if tl.Jobs.Last().V == 0 {
		t.Error("scaled run submitted nothing")
	}
}

func TestDeterminism(t *testing.T) {
	a := Fig6(Options{Seed: 42, Scale: 0.3})
	b := Fig6(Options{Seed: 42, Scale: 0.3})
	if a.TotalTransfers != b.TotalTransfers || a.TotalCollisions != b.TotalCollisions {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := Fig6(Options{Seed: 43, Scale: 0.3})
	_ = c // different seed may or may not differ; just must not panic
}

func TestTableRendering(t *testing.T) {
	tl := Fig7(Options{Scale: 0.2})
	var sb strings.Builder
	if _, err := tl.Table().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "transfers") || !strings.Contains(out, "deferrals") {
		t.Fatalf("table = %q", out)
	}
}
