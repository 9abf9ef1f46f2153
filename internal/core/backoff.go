package core

import "time"

// Backoff generates the paper's retry delays: "The base delay is one
// second, doubled after every failure, up to a maximum of one hour. Each
// delay interval is multiplied by a random factor between one and two in
// order to distribute the expected values." (§4)
//
// The zero value is not ready for use; construct with NewBackoff or fill
// in the fields and call Reset.
type Backoff struct {
	// Base is the pre-randomization delay after the first failure.
	Base time.Duration
	// Cap bounds the pre-randomization delay. Zero means no cap.
	Cap time.Duration
	// Factor is the per-failure multiplier (2 in the paper).
	Factor float64
	// RandMin and RandMax bound the uniform random multiplier applied to
	// every delay. The paper uses [1,2). Setting both to 1 disables
	// randomization — useful only to demonstrate cascading collisions.
	RandMin, RandMax float64
	// Rand supplies uniform values in [0,1); typically Runtime.Rand.
	Rand func() float64

	cur      time.Duration
	attempts int
}

// Default backoff parameters from §4 of the paper.
const (
	DefaultBase   = time.Second
	DefaultCap    = time.Hour
	DefaultFactor = 2.0
)

// NewBackoff returns a Backoff with the paper's defaults, drawing
// randomness from rnd.
func NewBackoff(rnd func() float64) *Backoff {
	b := paperBackoff(rnd)
	return &b
}

// paperBackoff is NewBackoff as a value, for a Try that keeps its
// backoff on its own stack.
func paperBackoff(rnd func() float64) Backoff {
	return Backoff{
		Base:    DefaultBase,
		Cap:     DefaultCap,
		Factor:  DefaultFactor,
		RandMin: 1.0,
		RandMax: 2.0,
		Rand:    rnd,
	}
}

// Reset restores the delay sequence to the beginning, as after a success.
func (b *Backoff) Reset() {
	b.cur = 0
	b.attempts = 0
}

// Attempts reports how many delays have been issued since the last Reset.
func (b *Backoff) Attempts() int { return b.attempts }

// Next returns the delay to sleep before the next retry and advances the
// sequence. The first call returns about Base; each subsequent call
// grows by Factor up to Cap, with the random spread applied last.
func (b *Backoff) Next() time.Duration {
	b.attempts++
	if b.cur == 0 {
		b.cur = b.Base
	} else {
		b.cur = time.Duration(float64(b.cur) * b.Factor)
		if b.cur <= 0 { // overflow guard
			b.cur = b.Cap
		}
	}
	if b.Cap > 0 && b.cur > b.Cap {
		b.cur = b.Cap
	}
	d := b.cur
	if b.RandMax > b.RandMin && b.Rand != nil {
		f := b.RandMin + (b.RandMax-b.RandMin)*b.Rand()
		d = time.Duration(float64(d) * f)
	} else if b.RandMin > 0 && b.RandMin != 1 {
		d = time.Duration(float64(d) * b.RandMin)
	}
	return d
}

// Peek reports the pre-randomization delay the next call to Next will
// scale, without advancing the sequence.
func (b *Backoff) Peek() time.Duration {
	if b.cur == 0 {
		return b.Base
	}
	n := time.Duration(float64(b.cur) * b.Factor)
	if n <= 0 {
		n = b.Cap
	}
	if b.Cap > 0 && n > b.Cap {
		n = b.Cap
	}
	return n
}
