package lease

import (
	"slices"
	"time"
)

// Ledger is the per-holder fairness ledger: each holder's grants,
// refusals and revocations, and how long it has wanted the resource
// without holding it. A Manager keeps one on its own clock; a carrier
// whose units live elsewhere keeps one where its clients run, so their
// wants are clocked in the clients' time.
type Ledger struct {
	clock   interface{ Elapsed() time.Duration } // nil: time stands at 0
	clients map[string]*ClientStats              // for stats(holder)
	order   []*ClientStats                       // first-contact order, for the scans
}

// NewLedger returns an empty ledger clocked by c (nil: time stands at
// 0).
func NewLedger(c interface{ Elapsed() time.Duration }) Ledger {
	return Ledger{clock: c}
}

// ClientStats is one holder's row of the ledger.
type ClientStats struct {
	Holder  string
	Grants  int64
	Rejects int64
	Revokes int64
	// MaxWait is the longest completed interval the client spent
	// wanting the resource (first denial or queue entry) before a
	// grant ended the wait.
	MaxWait time.Duration

	waiting      bool
	waitingSince time.Duration
}

func (l *Ledger) now() time.Duration {
	if l.clock == nil {
		return 0
	}
	return l.clock.Elapsed()
}

func (l *Ledger) stats(holder string) *ClientStats {
	if l.clients == nil {
		l.clients = make(map[string]*ClientStats)
	}
	st, ok := l.clients[holder]
	if !ok {
		st = &ClientStats{Holder: holder}
		l.clients[holder] = st
		l.order = append(l.order, st)
	}
	return st
}

// NoteWant records that holder wants the resource but does not hold
// it — e.g. a carrier sense came back busy, or a try failed upstream.
// The wait interval it opens ends at the holder's next grant.
func (l *Ledger) NoteWant(holder string) {
	st := l.stats(holder)
	if !st.waiting {
		st.waiting = true
		st.waitingSince = l.now()
	}
}

// NoteGrant records a grant to holder, which ends its wait.
func (l *Ledger) NoteGrant(holder string) {
	st := l.stats(holder)
	st.Grants++
	if st.waiting {
		if w := l.now() - st.waitingSince; w > st.MaxWait {
			st.MaxWait = w
		}
		st.waiting = false
	}
}

// NoteRefusal records an immediate refusal of holder, which wants the
// resource from now on.
func (l *Ledger) NoteRefusal(holder string) {
	l.stats(holder).Rejects++
	l.NoteWant(holder)
}

// NoteRevoke records a revocation of holder's tenure.
func (l *Ledger) NoteRevoke(holder string) { l.stats(holder).Revokes++ }

// Waiting reports whether the client wants the resource and does not
// hold it, and since when.
func (st *ClientStats) Waiting() (since time.Duration, ok bool) {
	return st.waitingSince, st.waiting
}

// Clients returns the per-holder ledgers in first-contact order.
func (l *Ledger) Clients() []*ClientStats {
	return slices.Clone(l.order)
}

// LongestWait returns the longest wait currently in progress: the
// no-starvation invariant samples this against its budget.
func (l *Ledger) LongestWait() time.Duration {
	var max time.Duration
	now := l.now()
	for _, st := range l.order {
		if st.waiting {
			if w := now - st.waitingSince; w > max {
				max = w
			}
		}
	}
	return max
}

// MaxStarvation returns the longest wait any client has experienced,
// completed or still in progress.
func (l *Ledger) MaxStarvation() time.Duration {
	max := l.LongestWait()
	for _, st := range l.order {
		if st.MaxWait > max {
			max = st.MaxWait
		}
	}
	return max
}
