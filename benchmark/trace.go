package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one record of the harness-side trace: a call the harness made
// into a layer, or a span the program itself reported (a request's
// /debug/trace tree, a job's Report.Trace) re-based onto the harness clock
// and hung under the call that produced it. Spans of one operation share
// Op; Parent is the span that caused this one (0 for an operation's root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// tracer keeps spans in memory and writes them once, at the end of the
// traced pass. A nil tracer records nothing, which is how the timed
// window runs.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	nextID int64
	nextOp int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newOp hands out the identifier the spans of one operation share.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// reserve hands out a span id before the span's duration is known, so
// children recorded during the call can name their parent.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span under a reserved id (0 allocates one) and
// returns the id.
func (t *tracer) record(id, parent, op int64, name string, start time.Time, dur time.Duration) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartUS: start.Sub(t.origin).Microseconds(),
		DurUS:   dur.Microseconds(),
	})
	return id
}

// timed runs fn under a span.
func (t *tracer) timed(parent, op int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.record(0, parent, op, name, start, d)
	return d
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, each span's self time in microseconds:
// its duration minus the part its direct children cover.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := selfTime(interval{s.StartUS, s.StartUS + s.DurUS}, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(self))
	}
	return out
}
