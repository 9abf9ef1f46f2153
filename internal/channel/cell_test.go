package channel_test

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/expt"
)

// The stations run as a scenario of internal/expt, so these tests drive
// them through its cells: expt.ChannelCell for one channel, and the rows
// of gridbench -fig abl and -fig ext for the claims EXPERIMENTS.md
// quotes, at the golden's scale and seeds 1-3.

// rowScale is the scale of the abl and ext goldens.
const rowScale = 0.25

func TestEthernetStationsNeverCollide(t *testing.T) {
	ch := expt.ChannelCell(expt.Options{Seed: 3}, 20, time.Second, channel.DefaultStationConfig(core.Ethernet))
	if ch.Collisions != 0 {
		t.Fatalf("collisions = %d, want 0 with carrier sense", ch.Collisions)
	}
	if ch.Successes == 0 {
		t.Fatal("no frames delivered")
	}
}

// TestDisciplineOrderingOnChannel bands the ext row's channel table.
// Seeds 1-3 delivered Ethernet 1289-1321 frames with 0 collisions,
// Aloha 325-378 (25-29 % of Ethernet), Fixed 0 at 100 % busy.
func TestDisciplineOrderingOnChannel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		x := expt.FigExt(expt.Options{Seed: seed, Scale: rowScale})
		frames := x.Channel.Cols // Ethernet, Aloha, Fixed, then their collisions
		eth, aloha, fixed := frames[0].Vals[0], frames[1].Vals[0], frames[2].Vals[0]
		if eth <= aloha || aloha <= fixed {
			t.Errorf("seed %d: frames Ethernet %v, Aloha %v, Fixed %v: not in discipline order", seed, eth, aloha, fixed)
		}
		// The original Aloha result: the pure-collision medium saturates
		// at a small fraction of the Ethernet goodput under load.
		if aloha > 0.4*eth || fixed != 0 {
			t.Errorf("seed %d: Aloha %v not below 40 %% of Ethernet %v, or Fixed %v not 0", seed, aloha, eth, fixed)
		}
		if c := frames[3].Vals[0]; c != 0 {
			t.Errorf("seed %d: Ethernet collided %v times with carrier sense", seed, c)
		}
	}
}

// TestRandomizedBackoffBeatsSynchronized bands the abl row's
// randomization table. The §3 requirement: "the problem will not be
// solved if all clients return at the same instant, so some asymmetry
// or random factor is needed to discourage cascading collisions."
// Seeds 1-3 delivered 325-378 frames randomized, 0 synchronized.
func TestRandomizedBackoffBeatsSynchronized(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := expt.FigAbl(expt.Options{Seed: seed, Scale: rowScale}).Randomization
		rand, sync := r.Cols[0].Vals[0], r.Cols[1].Vals[0]
		if rand < 250 || sync != 0 {
			t.Errorf("seed %d: randomized %v frames (want >= 250), synchronized %v (want 0)", seed, rand, sync)
		}
	}
}

// Property: successes plus collisions equals total frames whose
// transmission completed, and utilization stays in [0,1].
func TestQuickChannelAccounting(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		cfg := channel.DefaultStationConfig(core.Discipline(seed % 3))
		ch := expt.ChannelCell(expt.Options{Seed: seed}, n, 300*time.Millisecond, cfg)
		u := ch.Utilization()
		return u >= 0 && u <= 1.0000001 && ch.Successes >= 0 && ch.Collisions >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
