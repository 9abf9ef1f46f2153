package fsbuffer

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// ProducerConfig shapes one producer client: "a continuous loop,
// producing an output file of random size between 0-1 MB every second"
// (§5), with the write wrapped in a fixed, Aloha, or Ethernet retry.
type ProducerConfig struct {
	// Discipline selects Fixed, Aloha, or Ethernet behaviour.
	Discipline core.Discipline
	// MaxFileSize bounds the uniform random output size (1 MB paper).
	MaxFileSize int64
	// Interval is the production cadence (1 s in the paper).
	Interval time.Duration
	// TryLimit bounds the retries for a single file.
	TryLimit time.Duration
	// Trace, when non-nil, records this producer's attempt timeline.
	Trace *trace.Client
}

// DefaultProducerConfig mirrors the paper.
func DefaultProducerConfig(d core.Discipline) ProducerConfig {
	return ProducerConfig{
		Discipline:  d,
		MaxFileSize: 1 * MB,
		Interval:    time.Second,
		TryLimit:    2 * time.Minute,
	}
}

// Producer is one client's accounting.
type Producer struct {
	// Wrote counts files successfully completed by this producer.
	Wrote int64
	// Dropped counts files abandoned after the try limit.
	Dropped int64
}

// Sense is the Ethernet producer's carrier sense: defer unless the
// estimated free space (free minus expected growth of incomplete files)
// leaves room for a typical output file.
func Sense(b *Buffer, expect int64) func(ctx context.Context) error {
	deferred := core.Deferred("disk") // one refusal for every deferral
	return func(ctx context.Context) error {
		st := b.Stats()
		need := st.AvgDoneSize
		if need == 0 {
			need = expect / 2 // no completed files yet: assume the mean
		}
		if st.EstimatedFree < need {
			return deferred
		}
		return nil
	}
}

// Loop produces files until ctx is canceled, applying the configured
// discipline to each file's write.
func (pr *Producer) Loop(p core.Proc, ctx context.Context, b *Buffer, id int, cfg ProducerConfig) {
	p.SetTracer(cfg.Trace)
	client := &core.Client{
		Rt:         p,
		Discipline: cfg.Discipline,
		Limit:      core.For(cfg.TryLimit),
		Sense:      Sense(b, cfg.MaxFileSize),
		Trace:      cfg.Trace,
		Site:       "disk",
		Span:       "write",
	}
	seq := 0
	for ctx.Err() == nil {
		size := int64(p.Rand() * float64(cfg.MaxFileSize))
		if size < 1 {
			size = 1
		}
		seq++
		name := fmt.Sprintf("p%d-%d", id, seq)
		err := client.Do(ctx, func(ctx context.Context) error {
			// A failed attempt deletes its partial file (§5), so the
			// name is free again for the retry.
			return b.Write(p, ctx, name, size)
		})
		switch {
		case err == nil:
			pr.Wrote++
		case ctx.Err() != nil:
			return
		default:
			pr.Dropped++
		}
		if cfg.Interval > 0 {
			if p.Sleep(ctx, cfg.Interval) != nil {
				return
			}
		}
	}
}
