package expt

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
)

// resResult is what the res tests read of one cell: the cluster's
// counts, and the admission book's.
type resResult struct {
	Jobs, Crashes                    int64
	PerClient                        []float64
	Jain                             float64
	Rejects, Admits, Revokes, Lapses int64
	MaxWait                          time.Duration
}

// runRes runs one Reservation cell outside the sweep: resSubmit's n
// submitters for the window.
func runRes(opt Options, seed int64, n int, window time.Duration, plan *chaos.Plan, rec *chaos.Recorder) resResult {
	r := submitCell(opt.cell(fmt.Sprintf("res/reservation/n%d", n), seed, window, plan, rec), n, resSubmit(window, n))
	return resResult{
		Jobs: r.cl.Schedd.Jobs, Crashes: r.cl.Schedd.Crashes,
		PerClient: r.perClient(), Jain: r.jain(),
		Rejects: r.book.Rejects, Admits: r.book.Admits, Revokes: r.book.Tenure().Revokes, Lapses: r.book.Lapses,
		MaxWait: r.book.Tenure().MaxStarvation(),
	}
}

// The acceptance criterion of the reservation subsystem, both regimes:
// fault-free, an admission-controlled population out-produces the
// leased Ethernet population (no crashes, no collisions, capacity never
// overcommitted); under the res-flap plan the same population collapses
// below Ethernet, because the book keeps charging for wedged holders'
// windows until each boundary passes. Parameters mirror one FigRes cell
// at test scale.
func TestResTwoRegimes(t *testing.T) {
	const (
		n      = 20
		window = 120 * time.Second
	)
	quantum := leaseQuantum(window)
	var resSteady, ethSteady, resFlap, ethFlap int64
	for _, seed := range []int64{1, 2, 3} {
		rec := &chaos.Recorder{}
		rs := runRes(Options{}, seed, n, window, nil, rec)
		if !rec.Ok() {
			t.Errorf("seed %d: steady reservation cell violated invariants: %v", seed, rec.Err())
		}
		es := runLA(Options{}, seed, n, window, quantum, nil, nil)
		if rs.Jobs < es.Jobs {
			t.Errorf("seed %d: steady regime inverted: res=%d < eth=%d", seed, rs.Jobs, es.Jobs)
		}
		if rs.Crashes != 0 {
			t.Errorf("seed %d: admission control let the schedd crash %d times", seed, rs.Crashes)
		}
		if rs.Revokes != 0 {
			t.Errorf("seed %d: steady cell revoked %d claims: windows too tight", seed, rs.Revokes)
		}
		if rs.Jain < 0.95 {
			t.Errorf("seed %d: steady reservation Jain = %.3f, want >= 0.95", seed, rs.Jain)
		}
		// The book must actually be doing admission work, not just
		// waving everyone through.
		if rs.Rejects == 0 {
			t.Errorf("seed %d: steady cell never rejected: book capacity is not binding", seed)
		}

		plan := func() *chaos.Plan {
			p, err := chaos.Preset("res-flap", seed)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		rf := runRes(Options{}, seed, n, window, plan(), nil)
		ef := runLA(Options{}, seed, n, window, quantum, plan(), nil)
		if rf.Jobs >= ef.Jobs {
			t.Errorf("seed %d: collapse regime inverted: res-flap=%d >= eth-flap=%d", seed, rf.Jobs, ef.Jobs)
		}
		// The collapse mechanism, not just its effect: wedged claims are
		// revoked only at window boundaries, and the dead capacity shows
		// up as a burst of rejections.
		if rf.Revokes == 0 {
			t.Errorf("seed %d: flap cell never revoked a claim: no dead windows", seed)
		}
		if rf.Rejects <= rs.Rejects {
			t.Errorf("seed %d: flap rejections %d not above steady %d: dead windows did not fill the book",
				seed, rf.Rejects, rs.Rejects)
		}
		resSteady += rs.Jobs
		ethSteady += es.Jobs
		resFlap += rf.Jobs
		ethFlap += ef.Jobs
	}
	// Aggregate margins: the headline trade must be visible, not marginal.
	if resSteady < ethSteady*105/100 {
		t.Errorf("aggregate steady: res=%d < 1.05*eth (eth=%d)", resSteady, ethSteady)
	}
	if ethFlap < resFlap*115/100 {
		t.Errorf("aggregate flap: eth=%d < 1.15*res (res=%d)", ethFlap, resFlap)
	}
	// Reservation's own collapse: under flap it loses more than half of
	// its steady-state throughput.
	if resFlap*2 >= resSteady {
		t.Errorf("res collapse too shallow: flap=%d vs steady=%d", resFlap, resSteady)
	}
}

// Identical seeds must yield identical cells: the window-boundary timers
// and hang draws ride the same deterministic engine as everything else.
func TestResCellDeterminism(t *testing.T) {
	plan := func() *chaos.Plan {
		p, err := chaos.Preset("res-flap", 7)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	window := 120 * time.Second
	a := runRes(Options{}, 7, 20, window, plan(), nil)
	b := runRes(Options{}, 7, 20, window, plan(), nil)
	if a.Jobs != b.Jobs || a.Rejects != b.Rejects || a.Admits != b.Admits ||
		a.Revokes != b.Revokes || a.Lapses != b.Lapses || a.MaxWait != b.MaxWait {
		t.Errorf("cells diverged: (%d %d %d %d %d %v) vs (%d %d %d %d %d %v)",
			a.Jobs, a.Rejects, a.Admits, a.Revokes, a.Lapses, a.MaxWait,
			b.Jobs, b.Rejects, b.Admits, b.Revokes, b.Lapses, b.MaxWait)
	}
	for i := range a.PerClient {
		if a.PerClient[i] != b.PerClient[i] {
			t.Fatalf("client %d diverged: %v vs %v", i, a.PerClient[i], b.PerClient[i])
		}
	}
}

// FigRes at smoke scale: both tables fully populated, fault-free cells
// clean, and the throughput columns showing both regimes in aggregate.
func TestFigResSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figres sweep is not short")
	}
	rec := &chaos.Recorder{}
	ra := FigRes(Options{Scale: 0.1, Check: rec})
	if err := rec.Err(); err != nil {
		t.Errorf("fault-free cells violated invariants: %v", err)
	}
	if got := len(ra.Throughput.Cols); got != 4 {
		t.Fatalf("throughput cols = %d", got)
	}
	if got := len(ra.Admission.Cols); got != 5 {
		t.Fatalf("admission cols = %d", got)
	}
	for _, c := range ra.Throughput.Cols {
		if len(c.Vals) != len(ra.Throughput.Xs) {
			t.Errorf("col %s has %d vals for %d xs", c.Name, len(c.Vals), len(ra.Throughput.Xs))
		}
	}
	var resS, ethS, resF, ethF float64
	for i := range ra.Throughput.Xs {
		resS += ra.Throughput.Cols[0].Vals[i]
		ethS += ra.Throughput.Cols[1].Vals[i]
		resF += ra.Throughput.Cols[2].Vals[i]
		ethF += ra.Throughput.Cols[3].Vals[i]
	}
	if resS <= ethS {
		t.Errorf("steady regime inverted in sweep: res=%.0f <= eth=%.0f", resS, ethS)
	}
	if resF >= ethF {
		t.Errorf("collapse regime inverted in sweep: res-flap=%.0f >= eth-flap=%.0f", resF, ethF)
	}
	// Dead windows must appear in the admission table under flap.
	var dead float64
	for _, v := range ra.Admission.Cols[2].Vals {
		dead += v
	}
	if dead == 0 {
		t.Error("no dead windows recorded under res-flap")
	}
}
