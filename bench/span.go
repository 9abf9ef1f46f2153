package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job
// share Job; Parent is the index, in the same recorder, of the span
// that caused this one (-1 for the job's root). Times are nanoseconds
// since the recorder's epoch. Marks holds the httptrace instants of a
// wire.RoundTrip span and is nil elsewhere.
type span struct {
	Worker int        `json:"worker"`
	ID     int32      `json:"id"`
	Parent int32      `json:"parent"`
	Job    int32      `json:"job"`
	Name   string     `json:"name"`
	Start  int64      `json:"start_ns"`
	End    int64      `json:"end_ns"`
	Marks  *wireMarks `json:"marks,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder collects the spans of one worker goroutine in memory. A job
// runs on one goroutine from start to end, so the open-span stack gives
// each new span its parent without any identifier crossing the layers
// under test. A nil recorder records nothing: call sites are written
// unconditionally and tracing off costs one comparison.
type recorder struct {
	worker int
	epoch  time.Time
	spans  []span
	open   []int32
	job    int32
}

func newRecorder(worker int, epoch time.Time, capacity int) *recorder {
	return &recorder{worker: worker, epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{
		Worker: r.worker, ID: id, Parent: parent, Job: r.job, Name: name,
		Start: int64(time.Since(r.epoch)),
	})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns, for each span, its duration minus the part of it
// that its child spans cover. Children of one parent never overlap
// here (one goroutine), so that part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// writeSpans appends every recorder's spans to path as JSON lines.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for i := range r.spans {
			if err := enc.Encode(&r.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
