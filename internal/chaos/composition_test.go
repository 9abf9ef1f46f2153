package chaos

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/condor"
	"repro/internal/fsbuffer"
	"repro/internal/replica"
	"repro/internal/sim"
)

// compose merges two presets into one plan, the way a scenario that
// wants both regimes at once would.
func compose(a, b string, seed int64) *Plan {
	pa, err := Preset(a, seed)
	if err != nil {
		panic(err)
	}
	pb, err := Preset(b, seed)
	if err != nil {
		panic(err)
	}
	specs := make([]Spec, 0, len(pa.Specs)+len(pb.Specs))
	specs = append(specs, pa.Specs...)
	specs = append(specs, pb.Specs...)
	return &Plan{Name: a + "+" + b, Seed: seed, Specs: specs}
}

// windowFingerprint renders every materialized site window of an armed
// plan in deterministic order, for schedule comparison.
func windowFingerprint(a *Armed) string {
	sites := make([]string, 0, len(a.windows))
	for s := range a.windows {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	out := ""
	for _, s := range sites {
		for _, w := range a.windows[s] {
			out += fmt.Sprintf("%s %v-%v p=%v d=%v j=%v h=%v dr=%v du=%v\n",
				s, w.from, w.to, w.prob, w.delay, w.jitter, w.hang, w.drop, w.dup)
		}
	}
	return out
}

// TestPresetPairsCompose: every pair of presets must merge into one
// armable plan whose materialized fault windows are all well-formed —
// open before they close, inside the experiment horizon, with sane
// probabilities — against a fully populated universe as well as an
// empty one. Overlap between the two plans' windows at a site is legal
// (Inject folds them); a window that inverts or escapes the horizon is
// a scheduling collision and would fire faults outside the run (or
// never).
func TestPresetPairsCompose(t *testing.T) {
	const horizon = 10 * time.Minute
	names := Names()
	for i, an := range names {
		for _, bn := range names[i+1:] {
			t.Run(an+"+"+bn, func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					e := sim.New(seed)
					cl := condor.NewCluster(e.RT(), condor.Config{})
					buf := fsbuffer.New(e.RT(), fsbuffer.Config{})
					alloc := fsbuffer.NewAllocator(e.RT(), buf, 0)
					servers := []*replica.Server{
						replica.NewServer(e.RT(), "yyy", false, replica.Config{}),
						replica.NewServer(e.RT(), "zzz", false, replica.Config{}),
					}
					ch := channel.New(e.RT())
					a := compose(an, bn, seed).Arm(e.RT(), Targets{
						Window:    horizon,
						Cluster:   cl,
						Buffer:    buf,
						Allocator: alloc,
						Servers:   servers,
						Channel:   ch,
					})
					for site, ws := range a.windows {
						for _, w := range ws {
							if w.from < 0 || w.from >= w.to {
								t.Errorf("seed %d: inverted window at %s: %v-%v", seed, site, w.from, w.to)
							}
							if w.to > horizon {
								t.Errorf("seed %d: window at %s escapes the horizon: %v-%v > %v",
									seed, site, w.from, w.to, horizon)
							}
							if w.prob < 0 || w.prob > 1 {
								t.Errorf("seed %d: window at %s has probability %v", seed, site, w.prob)
							}
						}
					}
					// Run out the scheduled actions (squeezes, crashes,
					// flips): each must restore cleanly with no processes
					// to act on.
					if err := e.Run(); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			})
		}
	}
}

// TestComposedSummaryDeterministic: arming the same composed pair with
// the same seed twice must reproduce the identical window schedule and,
// after identical probing, the identical Summary line — across seeds
// 1-3. The probe visits every site with materialized windows on a
// fixed, distinct-timestamp grid so injection order (and hence RNG
// consumption) is fully determined.
func TestComposedSummaryDeterministic(t *testing.T) {
	const horizon = 10 * time.Minute
	run := func(an, bn string, seed int64) (string, string) {
		e := sim.New(seed)
		a := compose(an, bn, seed).Arm(e.RT(), Targets{Window: horizon})
		sites := make([]string, 0, len(a.windows))
		for s := range a.windows {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		for si, site := range sites {
			site := site
			for k := 0; k < 8; k++ {
				at := time.Duration(k+1)*horizon/9 + time.Duration(si)*time.Millisecond
				e.Schedule(at, func() { a.Inject(site) })
			}
		}
		if err := e.Run(); err != nil {
			panic(err)
		}
		return windowFingerprint(a), a.Summary()
	}
	names := Names()
	for i, an := range names {
		for _, bn := range names[i+1:] {
			for seed := int64(1); seed <= 3; seed++ {
				fp1, sum1 := run(an, bn, seed)
				fp2, sum2 := run(an, bn, seed)
				if fp1 != fp2 {
					t.Fatalf("%s+%s seed %d: window schedule diverged:\n%s\nvs:\n%s", an, bn, seed, fp1, fp2)
				}
				if sum1 != sum2 {
					t.Fatalf("%s+%s seed %d: summary diverged:\n%s\n%s", an, bn, seed, sum1, sum2)
				}
			}
		}
	}
}
