package fsbuffer

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestReserveGrantAndEnd(t *testing.T) {
	e := sim.New(1)
	b := New(e.RT(), Config{Capacity: 10 * MB})
	a := NewAllocator(e.RT(), b, 0)
	e.Spawn("c", func(p *sim.Proc) {
		res, err := a.Reserve(p, e.Context(), 4*MB)
		if err != nil {
			t.Errorf("reserve: %v", err)
			return
		}
		if a.Reserved() != 4*MB {
			t.Errorf("Reserved = %d", a.Reserved())
		}
		res.Release()
		res.Release() // idempotent
		if a.Reserved() != 0 {
			t.Errorf("Reserved after End = %d", a.Reserved())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Grants != 1 {
		t.Fatalf("Grants = %d", a.Grants)
	}
}

func TestReserveNeverOvercommits(t *testing.T) {
	e := sim.New(1)
	b := New(e.RT(), Config{Capacity: 10 * MB})
	a := NewAllocator(e.RT(), b, 0)
	e.Spawn("c", func(p *sim.Proc) {
		r1, err := a.Reserve(p, e.Context(), 6*MB)
		if err != nil {
			t.Errorf("r1: %v", err)
			return
		}
		if _, err := a.Reserve(p, e.Context(), 6*MB); !errors.Is(err, ErrReservationDenied) {
			t.Errorf("overcommit allowed: %v", err)
		}
		r1.Release()
		if _, err := a.Reserve(p, e.Context(), 6*MB); err != nil {
			t.Errorf("after release: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Denials != 1 {
		t.Fatalf("Denials = %d", a.Denials)
	}
}

func TestReserveAccountsForBufferContents(t *testing.T) {
	e := sim.New(1)
	b := New(e.RT(), Config{Capacity: 10 * MB})
	a := NewAllocator(e.RT(), b, 0)
	e.Spawn("c", func(p *sim.Proc) {
		if err := b.Write(p, e.Context(), "x", 7*MB); err != nil {
			t.Errorf("write: %v", err)
		}
		if _, err := a.Reserve(p, e.Context(), 4*MB); !errors.Is(err, ErrReservationDenied) {
			t.Errorf("reservation ignored live contents: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReservingProducersNeverCollide(t *testing.T) {
	e := sim.New(9)
	b := New(e.RT(), Config{})
	a := NewAllocator(e.RT(), b, 0)
	ctx, cancel := e.WithTimeout(e.Context(), 2*time.Minute)
	defer cancel()
	e.Spawn("consumer", func(p *sim.Proc) { b.Consumer(p, ctx) })
	producers := make([]*ReservingProducer, 20)
	for i := range producers {
		producers[i] = &ReservingProducer{}
		rp := producers[i]
		i := i
		e.Spawn("producer", func(p *sim.Proc) {
			rp.Loop(p, ctx, a, i, DefaultProducerConfig(core.Aloha))
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Collisions != 0 {
		t.Fatalf("Collisions = %d: reservation must prevent ENOSPC", b.Collisions)
	}
	var wrote int64
	for _, rp := range producers {
		wrote += rp.Wrote
	}
	if wrote == 0 {
		t.Fatal("nothing written")
	}
	if a.Reserved() != 0 {
		t.Fatalf("reservations leaked: %d", a.Reserved())
	}
}
