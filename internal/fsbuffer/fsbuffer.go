// Package fsbuffer simulates the producer/consumer scenario of §5: jobs
// in a remote cluster write output files of unknown size into a shared
// 120 MB filesystem buffer while a consumer drains completed files to an
// archive at 1 MB/s (in the manner of Kangaroo).
//
// The contended resource is disk space, and it cannot be reserved: a
// writer discovers overcommitment only when a write fails mid-file
// (ENOSPC), losing its partial output — a collision. The Ethernet
// producer estimates effective free space by assuming every incomplete
// file will grow to the average size of the completed ones (§5), and
// defers when the estimate leaves no room.
package fsbuffer

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
)

// B, KB, MB express sizes in bytes.
const (
	B  int64 = 1
	KB int64 = 1 << 10
	MB int64 = 1 << 20
)

// ErrNoSpace is the ENOSPC collision discovered mid-write.
var ErrNoSpace = errors.New("no space left on device")

// InjectWrite is the injection site covering a producer's write attempt
// (see core.Injector): an injected error is an I/O failure that loses
// the partial file, an injected delay is file-server latency.
const InjectWrite = "fsbuffer/write"

// Config parameterizes the buffer scenario.
type Config struct {
	// Capacity is the shared buffer size (120 MB in the paper).
	Capacity int64
	// WriteChunk is the granularity at which producers commit bytes; a
	// write fails when a chunk does not fit.
	WriteChunk int64
	// WriteRate is the file server's service bandwidth, bytes/second.
	// All I/O — producer writes, consumer reads, and failed attempts —
	// passes through one server queue, so hammering producers steal
	// service capacity from the consumer. This shared, unreservable
	// capacity is what the Fixed discipline destroys.
	WriteRate int64
	// DrainRate is the consumer's uplink to the archive (1 MB/s in the
	// paper); the drain also pays WriteRate-speed reads on the server.
	DrainRate int64
	// MetaTime is the server time consumed by a failed write attempt
	// (open, the ENOSPC write, unlink of the partial).
	MetaTime time.Duration
	// ScanInterval is how often the consumer looks for complete files.
	ScanInterval time.Duration
	// FailTime is the cost of a failed write attempt (the doomed open,
	// the ENOSPC write, unlinking the partial). Failures are never
	// free; this also bounds the spin rate of Fixed clients.
	FailTime time.Duration
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Capacity:     120 * MB,
		WriteChunk:   64 * KB,
		WriteRate:    3 * MB,
		DrainRate:    1 * MB,
		MetaTime:     5 * time.Millisecond,
		ScanInterval: 250 * time.Millisecond,
		FailTime:     20 * time.Millisecond,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Capacity <= 0 {
		c.Capacity = d.Capacity
	}
	if c.WriteChunk <= 0 {
		c.WriteChunk = d.WriteChunk
	}
	if c.WriteRate <= 0 {
		c.WriteRate = d.WriteRate
	}
	if c.DrainRate <= 0 {
		c.DrainRate = d.DrainRate
	}
	if c.MetaTime <= 0 {
		c.MetaTime = d.MetaTime
	}
	if c.ScanInterval <= 0 {
		c.ScanInterval = d.ScanInterval
	}
	if c.FailTime <= 0 {
		c.FailTime = d.FailTime
	}
}

// file is one buffered output file.
type file struct {
	name    string
	size    int64 // bytes written so far
	done    bool  // renamed to .done
	claimed bool  // taken by the consumer
}

// Buffer is the shared filesystem buffer.
type Buffer struct {
	eng   core.Backend
	cfg   Config
	inj   core.Injector
	files map[string]*file
	used  int64
	// server is the file server's single service queue; every I/O
	// operation passes through it in FIFO order.
	server *lease.Manager

	// Collisions counts ENOSPC write failures; Completed counts files
	// renamed .done; Consumed counts files drained by the consumer.
	Collisions int64
	Completed  int64
	Consumed   int64
	// BytesConsumed totals drained bytes.
	BytesConsumed int64
}

// New returns an empty buffer on engine e.
func New(e core.Backend, cfg Config) *Buffer {
	cfg.fillDefaults()
	return &Buffer{
		eng:    e,
		cfg:    cfg,
		files:  make(map[string]*file),
		server: lease.New(e, "fileserver", 1, 0),
	}
}

// serverOp runs one I/O operation of duration d through the server's
// FIFO queue.
func (b *Buffer) serverOp(p core.Proc, ctx context.Context, d time.Duration) error {
	if err := b.server.Take(p, ctx, 1); err != nil {
		return err
	}
	tr := p.Tracer()
	tr.Acquire("fileserver", 1)
	defer func() {
		b.server.Put(1)
		tr.Release("fileserver", 1)
	}()
	return p.Sleep(ctx, d)
}

// Config returns the effective configuration.
func (b *Buffer) Config() Config { return b.cfg }

// SetInjector installs a fault injector consulted at the buffer's
// failure sites. A nil injector (the default) disables injection.
func (b *Buffer) SetInjector(inj core.Injector) { b.inj = inj }

// SetCapacity retunes the buffer size at runtime (a disk partially
// reclaimed by another tenant, or a fault plan squeezing the resource).
// Shrinking below Used is allowed: Free goes negative and every write
// collides until the consumer drains, like a real filled filesystem.
func (b *Buffer) SetCapacity(n int64) {
	if n < 0 {
		n = 0
	}
	b.cfg.Capacity = n
}

// Used reports bytes currently in the buffer, complete and partial.
func (b *Buffer) Used() int64 { return b.used }

// Capacity reports the buffer's current total size.
func (b *Buffer) Capacity() int64 { return b.cfg.Capacity }

// Free reports raw free space, the `df` observable.
func (b *Buffer) Free() int64 { return b.cfg.Capacity - b.used }

// Stats summarizes buffer contents for carrier sensing.
type Stats struct {
	Free          int64
	DoneCount     int
	DoneBytes     int64
	PartialCount  int
	PartialBytes  int64
	AvgDoneSize   int64 // 0 when no file has completed yet
	EstimatedFree int64 // Free minus expected growth of partial files
}

// Stats computes the Ethernet producer's observables in one pass.
func (b *Buffer) Stats() Stats {
	var st Stats
	st.Free = b.Free()
	for _, f := range b.files {
		if f.done {
			st.DoneCount++
			st.DoneBytes += f.size
		} else {
			st.PartialCount++
			st.PartialBytes += f.size
		}
	}
	if st.DoneCount > 0 {
		st.AvgDoneSize = st.DoneBytes / int64(st.DoneCount)
	}
	// §5: "assumes the incomplete items in the buffer will be the same
	// size as the average of the complete files, and subtracts that
	// from the free disk space".
	expectedGrowth := int64(0)
	for _, f := range b.files {
		if !f.done && f.size < st.AvgDoneSize {
			expectedGrowth += st.AvgDoneSize - f.size
		}
	}
	st.EstimatedFree = st.Free - expectedGrowth
	return st
}

// Write streams a file of the given size into the buffer from process
// p. It commits space chunk by chunk; if a chunk does not fit, the
// partial file is deleted and the call returns an ErrNoSpace collision.
// On success the file is atomically renamed to name.done, signaling the
// consumer (§5). Cancellation mid-write also deletes the partial file.
func (b *Buffer) Write(p core.Proc, ctx context.Context, name string, size int64) error {
	if _, exists := b.files[name]; exists {
		return fmt.Errorf("fsbuffer: file %s already exists", name)
	}
	// Chaos seam: a fault plan may slow the write or fail it outright,
	// upstream of the organic ENOSPC path below.
	if fa := core.InjectAt(b.inj, InjectWrite); !fa.Zero() {
		p.Tracer().FaultInjected(InjectWrite)
		if fa.Delay > 0 {
			if err := p.Sleep(ctx, fa.Delay); err != nil {
				return err
			}
		}
		if fa.Err != nil {
			// The doomed attempt pays the same costs as an ENOSPC loss.
			if err := b.serverOp(p, ctx, b.cfg.MetaTime); err != nil {
				return err
			}
			if err := p.Sleep(ctx, b.cfg.FailTime); err != nil {
				return err
			}
			return core.Collision("disk", fa.Err)
		}
	}
	f := &file{name: name}
	b.files[name] = f
	remaining := size
	for remaining > 0 {
		chunk := b.cfg.WriteChunk
		if chunk > remaining {
			chunk = remaining
		}
		if b.used+chunk > b.cfg.Capacity {
			b.unlink(f)
			b.Collisions++
			// The doomed attempt still consumed server time — the open,
			// the ENOSPC write, the unlink — plus client-side cleanup.
			if err := b.serverOp(p, ctx, b.cfg.MetaTime); err != nil {
				return err
			}
			if err := p.Sleep(ctx, b.cfg.FailTime); err != nil {
				return err
			}
			return core.Collision("disk", ErrNoSpace)
		}
		b.used += chunk
		f.size += chunk
		remaining -= chunk
		d := time.Duration(float64(chunk) / float64(b.cfg.WriteRate) * float64(time.Second))
		if err := b.serverOp(p, ctx, d); err != nil {
			b.unlink(f)
			return err
		}
	}
	f.done = true
	b.Completed++
	return nil
}

// unlink removes a file and returns its space.
func (b *Buffer) unlink(f *file) {
	if _, ok := b.files[f.name]; !ok {
		return
	}
	delete(b.files, f.name)
	b.used -= f.size
	if b.used < 0 {
		panic("fsbuffer: used bytes underflow")
	}
}

// takeDone claims the oldest unclaimed complete file, or nil.
func (b *Buffer) takeDone() *file {
	var names []string
	for name, f := range b.files {
		if f.done && !f.claimed {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names) // deterministic choice
	f := b.files[names[0]]
	f.claimed = true
	return f
}

// Consumer drains completed files until ctx is canceled. Each file is
// read chunk-by-chunk through the shared server queue (at WriteRate)
// and forwarded up the archive link (at DrainRate), so a server mobbed
// by failing producers also starves the drain. Run it in its own
// process: eng.Spawn("consumer", ...).
func (b *Buffer) Consumer(p core.Proc, ctx context.Context) {
	for ctx.Err() == nil {
		f := b.takeDone()
		if f == nil {
			if p.Sleep(ctx, b.cfg.ScanInterval) != nil {
				return
			}
			continue
		}
		remaining := f.size
		for remaining > 0 {
			chunk := b.cfg.WriteChunk
			if chunk > remaining {
				chunk = remaining
			}
			remaining -= chunk
			read := time.Duration(float64(chunk) / float64(b.cfg.WriteRate) * float64(time.Second))
			if b.serverOp(p, ctx, read) != nil {
				return
			}
			up := time.Duration(float64(chunk) / float64(b.cfg.DrainRate) * float64(time.Second))
			if p.Sleep(ctx, up) != nil {
				return
			}
		}
		b.unlink(f)
		b.Consumed++
		b.BytesConsumed += f.size
	}
}
