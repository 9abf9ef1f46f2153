// Package channel models the medium the paper's discipline is named
// after: a single shared broadcast channel in which overlapping
// transmissions destroy each other (Metcalfe & Boggs, 1976). It exists
// to validate the core retry discipline against its origin and to
// demonstrate the classic results the paper leans on:
//
//   - without carrier sense the medium behaves like Aloha and saturates
//     at a small fraction of capacity;
//   - without the randomized backoff factor, synchronized stations
//     re-collide forever (cascading collisions);
//   - with carrier sense and randomized exponential backoff the channel
//     sustains high utilization.
//
// The medium and its stations are a scenario of internal/expt, run like
// every other cell; gridbench -fig abl and -fig ext print the results.
package channel

import (
	"context"
	"time"

	"repro/internal/core"
)

// Channel is a shared broadcast medium. Any two transmissions that
// overlap in time corrupt each other; both transmitters observe the
// collision only at the end of their frame (collision detect).
// InjectTransmit is the injection site covering one frame transmission
// (see core.Injector): an injected error is a noise burst corrupting
// the frame, an injected delay stretches the transmission.
const InjectTransmit = "channel/transmit"

type Channel struct {
	eng    core.Backend
	inj    core.Injector
	active []*frame

	// Successes and Collisions count completed and corrupted frames;
	// BusyTime accumulates time the medium spent carrying at least one
	// frame (useful or not), for utilization accounting.
	Successes  int64
	Collisions int64

	busySince time.Duration
	busyTotal time.Duration
}

// frame is one in-flight transmission.
type frame struct {
	corrupted bool
}

// New returns an idle channel on backend e.
func New(e core.Backend) *Channel { return &Channel{eng: e} }

// SetInjector installs a fault injector consulted on every transmission.
// A nil injector (the default) disables injection.
func (c *Channel) SetInjector(inj core.Injector) { c.inj = inj }

// Busy reports whether a transmission is in flight — the carrier-sense
// observable.
func (c *Channel) Busy() bool { return len(c.active) > 0 }

// Utilization reports the fraction of elapsed time the medium was busy.
func (c *Channel) Utilization() float64 {
	total := c.eng.Elapsed()
	if total == 0 {
		return 0
	}
	busy := c.busyTotal
	if len(c.active) > 0 {
		busy += total - c.busySince
	}
	return float64(busy) / float64(total)
}

// Transmit sends one frame of duration d from process p. If any other
// frame overlaps it, both are corrupted and Transmit returns a
// collision error — after the full frame time, because a transmitter
// only discovers the damage by observing the medium (§3: "the client
// must observe the effects of its actions rather than simply assume
// their success").
func (c *Channel) Transmit(p core.Proc, ctx context.Context, d time.Duration) error {
	f := &frame{}
	// Chaos seam: a noise burst corrupts the frame regardless of other
	// traffic; injected latency stretches the transmission (and so
	// widens its collision window).
	if fa := core.InjectAt(c.inj, InjectTransmit); !fa.Zero() {
		d += fa.Delay
		if fa.Err != nil {
			f.corrupted = true
		}
	}
	if len(c.active) > 0 {
		f.corrupted = true
		for _, other := range c.active {
			other.corrupted = true
		}
	} else {
		c.busySince = c.eng.Elapsed()
	}
	c.active = append(c.active, f)

	err := p.Sleep(ctx, d)

	for i, other := range c.active {
		if other == f {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	if len(c.active) == 0 {
		c.busyTotal += c.eng.Elapsed() - c.busySince
	}
	if err != nil {
		return err
	}
	if f.corrupted {
		c.Collisions++
		return core.Collision("channel", nil)
	}
	c.Successes++
	return nil
}

// Sense returns a carrier-sense hook for core.Client: defer while the
// medium is busy.
func (c *Channel) Sense() func(ctx context.Context) error {
	return core.ThresholdSense("carrier", func() int64 {
		if c.Busy() {
			return 0
		}
		return 1
	}, 1)
}

// StationConfig shapes one transmitting station.
type StationConfig struct {
	// Discipline selects Fixed, Aloha, or Ethernet behaviour.
	Discipline core.Discipline
	// Frame is the transmission duration.
	Frame time.Duration
	// Gap is the idle time between a station's successive frames.
	Gap time.Duration
	// TryLimit bounds the retries for one frame.
	TryLimit core.Limit
	// Backoff optionally overrides the paper-default backoff.
	Backoff *core.Backoff
}

// DefaultStationConfig returns a millisecond-scale station: 1 ms
// frames, 5 ms mean gap, generous retry budget.
func DefaultStationConfig(d core.Discipline) StationConfig {
	return StationConfig{
		Discipline: d,
		Frame:      time.Millisecond,
		Gap:        5 * time.Millisecond,
		TryLimit:   core.For(time.Minute),
	}
}

// Station transmits frames through the channel until ctx is canceled.
type Station struct {
	// Sent counts this station's successful frames; Lost counts frames
	// abandoned after the retry budget.
	Sent, Lost int64
}

// Loop runs the station.
func (s *Station) Loop(p core.Proc, ctx context.Context, ch *Channel, cfg StationConfig) {
	var bo *core.Backoff
	if cfg.Backoff != nil {
		// Copy the template: a Backoff is per-client state, and sharing
		// one across stations would (accidentally) desynchronize them.
		b := *cfg.Backoff
		bo = &b
		if bo.Rand == nil {
			bo.Rand = p.Rand
		}
	} else {
		bo = core.NewBackoff(p.Rand)
		// Scale the paper's second-scale backoff to frame time.
		bo.Base = cfg.Frame
		bo.Cap = 1024 * cfg.Frame
	}
	client := &core.Client{
		Rt:         p,
		Discipline: cfg.Discipline,
		Limit:      cfg.TryLimit,
		Sense:      ch.Sense(),
		Backoff:    bo,
	}
	for ctx.Err() == nil {
		err := client.Do(ctx, func(ctx context.Context) error {
			return ch.Transmit(p, ctx, cfg.Frame)
		})
		switch {
		case err == nil:
			s.Sent++
		case ctx.Err() != nil:
			return
		default:
			s.Lost++
		}
		// Randomize the gap so offered load is smooth.
		gap := time.Duration(float64(cfg.Gap) * (0.5 + p.Rand()))
		if gap > 0 {
			if p.Sleep(ctx, gap) != nil {
				return
			}
		}
	}
}
