package chaos

import (
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/sim"
)

// probe drives the armed injector at fixed virtual times by scheduling
// timer callbacks, returning the faults observed in order.
func probe(e *sim.Engine, a *Armed, site string, at ...time.Duration) []core.Fault {
	out := make([]core.Fault, len(at))
	for i, t := range at {
		i := i
		e.Schedule(t, func() { out[i] = a.Inject(site) })
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return out
}

func TestErrorBurstWindowing(t *testing.T) {
	e := sim.New(1)
	p := &Plan{Name: "t", Seed: 7, Specs: []Spec{
		ErrorBurst{Window: Window{Start: 10 * time.Second, Duration: 10 * time.Second}, Site: "s", Prob: 1},
	}}
	a := p.Arm(e.RT(), Targets{Window: time.Minute})
	got := probe(e, a, "s", 5*time.Second, 15*time.Second, 25*time.Second)
	if !got[0].Zero() || !got[2].Zero() {
		t.Errorf("faults outside the window: %+v %+v", got[0], got[2])
	}
	if got[1].Err == nil {
		t.Errorf("no fault inside the window: %+v", got[1])
	}
	if a.Errors != 1 {
		t.Errorf("Errors = %d, want 1", a.Errors)
	}
}

func TestErrorBurstMissesOtherSites(t *testing.T) {
	e := sim.New(1)
	p := &Plan{Name: "t", Seed: 7, Specs: []Spec{
		ErrorBurst{Window: Window{Start: 0, Duration: time.Minute}, Site: "s", Prob: 1},
	}}
	a := p.Arm(e.RT(), Targets{Window: time.Minute})
	got := probe(e, a, "other", 5*time.Second)
	if !got[0].Zero() {
		t.Errorf("fault leaked to an unrelated site: %+v", got[0])
	}
}

func TestLatencySpikeAddsDelay(t *testing.T) {
	e := sim.New(1)
	p := &Plan{Name: "t", Seed: 7, Specs: []Spec{
		LatencySpike{Window: Window{Start: 0, Duration: 30 * time.Second}, Site: "s",
			Extra: 2 * time.Second, Jitter: time.Second},
	}}
	a := p.Arm(e.RT(), Targets{Window: time.Minute})
	got := probe(e, a, "s", 5*time.Second, 45*time.Second)
	if got[0].Err != nil || got[0].Delay < 2*time.Second || got[0].Delay >= 3*time.Second {
		t.Errorf("in-window fault = %+v, want delay in [2s,3s)", got[0])
	}
	if !got[1].Zero() {
		t.Errorf("delay outside the window: %+v", got[1])
	}
}

func TestFractionalWindowResolvesAgainstHorizon(t *testing.T) {
	e := sim.New(1)
	p := &Plan{Name: "t", Seed: 7, Specs: []Spec{
		ErrorBurst{Window: Window{FracStart: 0.5, FracDuration: 0.25}, Site: "s", Prob: 1},
	}}
	a := p.Arm(e.RT(), Targets{Window: 100 * time.Second})
	got := probe(e, a, "s", 40*time.Second, 60*time.Second, 80*time.Second)
	if !got[0].Zero() || got[1].Err == nil || !got[2].Zero() {
		t.Errorf("fractional window misplaced: %+v", got)
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	mk := func() []core.Fault {
		e := sim.New(1)
		p := &Plan{Name: "t", Seed: 42, Specs: []Spec{
			ErrorBurst{Window: Window{Start: 0, Duration: time.Minute, StartJitter: 5 * time.Second},
				Site: "s", Prob: 0.5},
		}}
		a := p.Arm(e.RT(), Targets{Window: time.Minute})
		var at []time.Duration
		for i := 1; i <= 40; i++ {
			at = append(at, time.Duration(i)*time.Second)
		}
		return probe(e, a, "s", at...)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	// And a different seed must (for this spec) produce a different draw
	// sequence somewhere — the schedule is seed-driven, not constant.
	e := sim.New(1)
	p := &Plan{Name: "t", Seed: 43, Specs: []Spec{
		ErrorBurst{Window: Window{Start: 0, Duration: time.Minute, StartJitter: 5 * time.Second},
			Site: "s", Prob: 0.5},
	}}
	arm := p.Arm(e.RT(), Targets{Window: time.Minute})
	var at []time.Duration
	for i := 1; i <= 40; i++ {
		at = append(at, time.Duration(i)*time.Second)
	}
	c := probe(e, arm, "s", at...)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 40-draw fault sequences")
	}
}

func TestFDSqueezeShrinksAndRestores(t *testing.T) {
	e := sim.New(1)
	cl := condor.NewCluster(e.RT(), condor.Config{FDCapacity: 1000})
	p := &Plan{Name: "t", Seed: 1, Specs: []Spec{
		FDSqueeze{Window: Window{Start: 10 * time.Second, Duration: 10 * time.Second}, Factor: 0.25},
	}}
	a := p.Arm(e.RT(), Targets{Window: time.Minute, Cluster: cl})
	var during, after int64
	e.Schedule(15*time.Second, func() { during = cl.FDs.Sense().Capacity })
	e.Schedule(25*time.Second, func() { after = cl.FDs.Sense().Capacity })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if during != 250 {
		t.Errorf("squeezed capacity = %d, want 250", during)
	}
	if after != 1000 {
		t.Errorf("restored capacity = %d, want 1000", after)
	}
	if a.Actions == 0 {
		t.Error("squeeze recorded no action")
	}
}

func TestServerFlapTogglesAndRestores(t *testing.T) {
	e := sim.New(1)
	servers := []*replica.Server{
		replica.NewServer(e.RT(), "a", false, replica.Config{}),
		replica.NewServer(e.RT(), "b", false, replica.Config{}),
	}
	p := &Plan{Name: "t", Seed: 1, Specs: []Spec{
		ServerFlap{Window: Window{Start: 10 * time.Second, Duration: 20 * time.Second},
			Server: 1, Period: 5 * time.Second},
	}}
	p.Arm(e.RT(), Targets{Window: time.Minute, Servers: servers})
	var sick, healthy, other bool
	e.Schedule(12*time.Second, func() { sick = servers[1].BlackHole; other = servers[0].BlackHole })
	e.Schedule(17*time.Second, func() { healthy = !servers[1].BlackHole })
	var restored bool
	e.Schedule(45*time.Second, func() { restored = !servers[1].BlackHole })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sick || !healthy {
		t.Errorf("flap did not alternate: sick@12=%v healthy@17=%v", sick, healthy)
	}
	if other {
		t.Error("flap touched the wrong server")
	}
	if !restored {
		t.Error("server not restored to health after the window")
	}
}

func TestScheddCrashKillsOnSchedule(t *testing.T) {
	e := sim.New(1)
	cl := condor.NewCluster(e.RT(), condor.Config{})
	p := &Plan{Name: "t", Seed: 1, Specs: []Spec{
		ScheddCrash{At: 10 * time.Second, Every: 40 * time.Second, Count: 3},
	}}
	p.Arm(e.RT(), Targets{Window: 2 * time.Minute, Cluster: cl})
	var downAt, upAt bool
	e.Schedule(11*time.Second, func() { downAt = cl.Schedd.Down() })
	e.Schedule(45*time.Second, func() { upAt = !cl.Schedd.Down() }) // restarted after 30s
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if cl.Schedd.Crashes != 3 {
		t.Errorf("Crashes = %d, want 3", cl.Schedd.Crashes)
	}
	if !downAt || !upAt {
		t.Errorf("crash/restart cycle wrong: down@11s=%v up@45s=%v", downAt, upAt)
	}
}

func TestPresets(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("Names() = %v, want at least 5 presets", names)
	}
	for _, n := range names {
		p, err := Preset(n, 9)
		if err != nil {
			t.Fatalf("Preset(%q): %v", n, err)
		}
		if p.Name != n || p.Seed != 9 || len(p.Specs) == 0 {
			t.Errorf("Preset(%q) = %+v", n, p)
		}
		// Every preset must arm against every scenario shape without
		// panicking, including one with no targets at all.
		e := sim.New(1)
		p.Arm(e.RT(), Targets{Window: time.Minute})
		if err := e.Run(); err != nil {
			t.Errorf("empty-target arm of %q: %v", n, err)
		}
	}
	if _, err := Preset("no-such-plan", 1); err == nil {
		t.Error("unknown preset did not error")
	}
}

func TestSummaryIsDeterministic(t *testing.T) {
	mk := func() string {
		e := sim.New(1)
		p := &Plan{Name: "t", Seed: 3, Specs: []Spec{
			ErrorBurst{Window: Window{Start: 0, Duration: time.Minute}, Site: "x", Prob: 1},
			LatencySpike{Window: Window{Start: 0, Duration: time.Minute}, Site: "y", Extra: time.Second},
		}}
		a := p.Arm(e.RT(), Targets{Window: time.Minute})
		probe(e, a, "x", time.Second, 2*time.Second)
		// probe quiesces the engine; drive site y with a fresh timer set.
		e.Schedule(0, func() { a.Inject("y") })
		if err := e.Run(); err != nil {
			panic(err)
		}
		return a.Summary()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("summaries diverged:\n%s\n%s", a, b)
	}
	for _, want := range []string{"chaos[t seed=3]", "2 errors", "1 delays", "x=2", "y=1"} {
		if !contains(a, want) {
			t.Errorf("summary %q missing %q", a, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
