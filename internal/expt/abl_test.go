package expt

import (
	"testing"

	"repro/internal/metrics"
)

// The bands of the abl and ext rows' claims, at the goldens' scale
// (gridbench -fig abl|ext -scale 0.25) and seeds 1-3; each test states
// the spans those seeds gave. The channel's claims are banded in
// internal/channel, the reservation baseline's in internal/fsbuffer.

// rowOpts are the rows' options at seed.
func rowOpts(seed int64) Options { return Options{Seed: seed, Scale: 0.25} }

// row reads the one row of a single-population table.
func row(t *metrics.SweepTable) []float64 {
	vals := make([]float64, len(t.Cols))
	for i, c := range t.Cols {
		vals[i] = c.Vals[0]
	}
	return vals
}

// TestBackoffCapBand: a cap near the base keeps Aloha submitters
// hammering the overloaded schedd; past the window's longest backoff
// the cap stops mattering. Seeds 1-3, caps 2s/16s/1h: jobs 19-27 /
// 42-51 / 42-51, crashes 3 / 2 / 2.
func TestBackoffCapBand(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		v := row(ablCap(rowOpts(seed)))
		j2, j16, jh, c2, c16 := v[0], v[1], v[2], v[3], v[4]
		if j2 > 0.7*j16 || c2 <= c16 {
			t.Errorf("seed %d: cap 2s %v jobs %v crashes vs 16s %v jobs %v crashes: the small cap did not cost", seed, j2, c2, j16, c16)
		}
		if jh < 0.9*j16 || jh > 1.1*j16 {
			t.Errorf("seed %d: cap 1h %v jobs vs 16s %v: past 16x base the cap should not matter", seed, jh, j16)
		}
	}
}

// TestThresholdBand: §6's carrier threshold is a real tuning knob. Too
// low fails to prevent crashes, too high idles the schedd. Seeds 1-3,
// thresholds 1%/12%/99% of the FD table: jobs 42-56 / 162-165 / 73-78,
// crashes 2 / 0 / 0.
func TestThresholdBand(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		v := row(ablThreshold(rowOpts(seed)))
		low, mid, high := v[0], v[1], v[2]
		if mid < 2*low || mid < 1.5*high {
			t.Errorf("seed %d: jobs 1%% %v, 12%% %v, 99%% %v: the middle threshold should lead", seed, low, mid, high)
		}
		if v[3] == 0 || v[4] != 0 || v[5] != 0 {
			t.Errorf("seed %d: crashes %v/%v/%v: want some at 1%%, none at 12%% and 99%%", seed, v[3], v[4], v[5])
		}
	}
}

// TestProbeTimeoutBand: a short probe diverts Ethernet readers from
// busy but healthy servers (more deferrals, more transfers through load
// balancing); a long one approaches the Aloha penalty. Seeds 1-3,
// probes 0.5s/5s/30s: transfers 40-41 / 35-39 / 25-31, deferrals
// 79-86 / 33-46 / 6-10.
func TestProbeTimeoutBand(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		v := row(ablProbe(rowOpts(seed)))
		if !(v[0] >= v[1] && v[1] >= v[2] && v[2] < 0.85*v[0]) {
			t.Errorf("seed %d: transfers %v/%v/%v: want non-increasing in the probe budget, 30s 15%% below 0.5s", seed, v[0], v[1], v[2])
		}
		if !(v[3] > v[4] && v[4] > v[5]) {
			t.Errorf("seed %d: deferrals %v/%v/%v: want decreasing in the probe budget", seed, v[3], v[4], v[5])
		}
	}
}

// TestDAGMakespanBand: §8's "obnoxious customer". Among a polite Aloha
// crowd the Fixed dispatcher finishes its own DAG first, because
// everyone else backs off. Seeds 1-3, makespan: Ethernet 315-454 s,
// Aloha 296-554 s, Fixed 180-195 s.
func TestDAGMakespanBand(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		v := row(extDAG(rowOpts(seed)))
		eth, aloha, fixed := v[0], v[1], v[2]
		if fixed <= 0 || 1.5*fixed > eth || 1.5*fixed > aloha {
			t.Errorf("seed %d: makespan Ethernet %vs, Aloha %vs, Fixed %vs: want Fixed 1.5x faster than both", seed, eth, aloha, fixed)
		}
		if max(eth, aloha) >= dagWindow.Seconds() {
			t.Errorf("seed %d: a polite dispatcher did not finish its DAG within %v", seed, dagWindow)
		}
	}
}
