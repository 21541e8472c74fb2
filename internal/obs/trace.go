package obs

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sync"
	"time"
)

// Tracing. A Trace is a span tree that travels through the stack inside a
// context.Context. The serving layer mints one per HTTP request (its ID is
// the X-Trace-Id header, retained in a TraceRing for /debug/trace/{id});
// a batch job run without one gets its own. Admission, the job and its
// phases, the scheduler's slot waits and task attempts, cache probes and
// DFS reads each open a span under whatever span the context carries, so
// a job run inside a request is simply a subtree of the request. Call
// sites are unconditional: StartSpan on a context without a trace returns
// a nil span whose End/SetAttr are no-ops, and an untraced path pays one
// context lookup per span site.

// Span phases used by the MapReduce runtime: the job span, each phase's
// own span, and every task attempt carry one.
const (
	PhaseJob     = "job"
	PhaseFilter  = "filter"
	PhaseMap     = "map"
	PhaseShuffle = "shuffle"
	PhaseReduce  = "reduce"
	PhaseCommit  = "commit"
)

// Span outcomes.
const (
	OutcomeOK     = "ok"
	OutcomeRetry  = "retry" // transient failure, the task was re-attempted
	OutcomeFailed = "failed"
	// OutcomeDuplicate marks an attempt that finished after another
	// attempt of the same task had already won (speculative execution or
	// an abandoned deadline attempt); its output was suppressed.
	OutcomeDuplicate = "duplicate"
	// OutcomeReissue marks a map task re-executed after its original
	// attempt had already won, because the worker holding its intermediate
	// shards died before every reducer fetched them. The re-run's shards
	// replace the lost ones but its metrics are suppressed, so the task is
	// still counted exactly once in the job counters.
	OutcomeReissue = "reissue"
)

// MaxReqSpans bounds the spans recorded per request trace; spans started
// beyond the cap are dropped (counted in Dropped) so a pathological job
// cannot grow a request's trace without bound. A batch job's own trace
// keeps every span.
const MaxReqSpans = 512

// Span is one unit of work in a trace. ID, Parent, Name and StartUS are
// fixed when it opens. The owner writes the typed fields below them before
// End; attributes go through SetAttr. End and Snapshot take the trace
// lock, and a snapshot copies typed fields only from ended spans, so
// reading a trace while an abandoned attempt still runs is race-free.
type Span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"` // 0 = a root span
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"` // relative to the trace's start
	DurUS   int64  `json:"dur_us"`   // 0 while the span is open

	// Phase is the MapReduce phase of a job, phase or attempt span.
	Phase string `json:"phase,omitempty"`
	// Task is the task ordinal within Phase. The task invariant: a span
	// with Phase map or reduce and Task >= 0 is exactly one task attempt.
	// A phase's own span carries -1; slot.wait carries its task but no
	// phase.
	Task int `json:"task,omitempty"`
	// Partition is the split/partition id the attempt worked on, if any.
	Partition string `json:"partition,omitempty"`
	// Attempt numbers retries of the same task, starting at 0.
	Attempt int `json:"attempt,omitempty"`
	// Speculative marks a duplicate attempt launched against a straggler.
	Speculative bool              `json:"spec,omitempty"`
	RecordsIn   int64             `json:"records_in,omitempty"`
	RecordsOut  int64             `json:"records_out,omitempty"`
	Bytes       int64             `json:"bytes,omitempty"`
	Outcome     string            `json:"outcome,omitempty"`
	Attrs       map[string]string `json:"attrs,omitempty"`

	tr    *Trace
	start time.Time
	ended bool
}

// IsTaskAttempt reports whether the span is one map or reduce task
// attempt (the task invariant). Phase spans and slot.wait never are.
func (s *Span) IsTaskAttempt() bool {
	return (s.Phase == PhaseMap || s.Phase == PhaseReduce) && s.Task >= 0
}

// SetAttr attaches a key/value attribute to the span. Safe on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[key] = value
	s.tr.mu.Unlock()
}

// End stamps the span's duration (at least 1µs: zero-width spans vanish
// in trace viewers). Only the first End counts; safe on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := max(int64(time.Since(s.start)/time.Microsecond), 1)
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.DurUS = d
	}
	s.tr.mu.Unlock()
}

// Trace is a span tree. Safe for concurrent use: the attempts of a job
// start spans from many goroutines.
type Trace struct {
	id    string
	begin time.Time
	cap   int // spans kept; 0 keeps every span
	// top is the context position of a trace with no span open yet:
	// spans started from it are roots.
	top Span

	mu      sync.Mutex
	spans   []*Span
	dropped int
}

// NewTrace creates an empty request trace with the given ID, capped at
// MaxReqSpans spans.
func NewTrace(id string) *Trace { return newTrace(id, MaxReqSpans) }

// NewJobTrace creates an empty trace for a batch job; it keeps every
// span.
func NewJobTrace(id string) *Trace { return newTrace(id, 0) }

func newTrace(id string, limit int) *Trace {
	t := &Trace{id: id, begin: time.Now(), cap: limit}
	t.top.tr = t
	return t
}

// TraceID returns the trace's identifier.
func (t *Trace) TraceID() string { return t.id }

// open starts a span under parent (0 = root). Past the cap the span is
// returned detached: its owner may fill and end it, but it is not
// recorded and has ID 0.
func (t *Trace) open(name string, parent int64) *Span {
	now := time.Now()
	s := &Span{Parent: parent, Name: name, StartUS: int64(now.Sub(t.begin) / time.Microsecond), tr: t, start: now}
	t.mu.Lock()
	if t.cap > 0 && len(t.spans) >= t.cap {
		t.dropped++
	} else {
		t.spans = append(t.spans, s)
		s.ID = int64(len(t.spans))
	}
	t.mu.Unlock()
	return s
}

// ReqTraceSnapshot is the exported state of one trace, a request's or a
// job's.
type ReqTraceSnapshot struct {
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"start"`
	DurUS   int64     `json:"dur_us"`
	Dropped int       `json:"dropped,omitempty"`
	Spans   []Span    `json:"spans"`
}

// Snapshot returns a deep copy of the trace in span start order. A span
// still open contributes its ID, parent, name and start only. DurUS is
// the extent of the ended root spans: the request span's duration for a
// request, queue wait plus job for a batch job. Spans that end after the
// root do not stretch it.
func (t *Trace) Snapshot() ReqTraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := ReqTraceSnapshot{
		TraceID: t.id,
		Start:   t.begin,
		Dropped: t.dropped,
		Spans:   make([]Span, len(t.spans)),
	}
	first, last := int64(-1), int64(0)
	for i, s := range t.spans {
		c := Span{ID: s.ID, Parent: s.Parent, Name: s.Name, StartUS: s.StartUS}
		if s.ended {
			c = *s
			c.tr = nil
			if s.Parent == 0 {
				if first < 0 || s.StartUS < first {
					first = s.StartUS
				}
				last = max(last, s.StartUS+s.DurUS)
			}
		}
		c.Attrs = maps.Clone(s.Attrs)
		snap.Spans[i] = c
	}
	if first >= 0 {
		snap.DurUS = last - first
	}
	return snap
}

// Spans returns a snapshot of the trace's spans in start order.
func (t *Trace) Spans() []Span { return t.Snapshot().Spans }

// SpanNames returns how often each span name occurs in the trace, a
// convenience for tests asserting trace shape.
func (s ReqTraceSnapshot) SpanNames() map[string]int {
	out := make(map[string]int, len(s.Spans))
	for _, sp := range s.Spans {
		out[sp.Name]++
	}
	return out
}

type spanKey struct{}

// ContextWithTrace installs t on the context; spans started from the
// returned context are roots of t.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, spanKey{}, &t.top)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if at, _ := ctx.Value(spanKey{}).(*Span); at != nil {
		return at.tr
	}
	return nil
}

// StartSpan opens a span named name under the context's current span,
// returning a derived context (carrying the new span as parent for
// nested StartSpan calls) and the span itself. Without a trace on the
// context it returns ctx unchanged and a nil span whose End/SetAttr are
// no-ops, so call sites never branch. A span dropped by the cap also
// returns ctx unchanged: its children hang on the nearest recorded
// ancestor, so the tree has no dangling parent.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	at, _ := ctx.Value(spanKey{}).(*Span)
	if at == nil {
		return ctx, nil
	}
	s := at.tr.open(name, at.ID)
	if s.ID == 0 {
		return ctx, s
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// NewTraceID returns a fresh random 64-bit trace identifier in hex.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to
		// a time-derived ID rather than panicking in a serving path.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000000")))[:16]
	}
	return hex.EncodeToString(b[:])
}

// WriteJSONL writes one JSON object per span, one per line.
func (s ReqTraceSnapshot) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range s.Spans {
		b, err := json.Marshal(&s.Spans[i])
		if err != nil {
			return err
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ParseJSONL re-parses the output of WriteJSONL.
func ParseJSONL(data []byte) ([]Span, error) {
	var out []Span
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("obs: bad span line %q: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// chromeEvent is one trace_event entry in the Chrome/Perfetto JSON
// format. Args carries the whole span, so a viewer shows its phase, task,
// outcome, counts and attributes.
type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	PID  int    `json:"pid"`
	TID  int64  `json:"tid"`
	Args *Span  `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeTID lays spans out on viewer rows: one row per map task and one
// per reduce partition (a slot.wait joins its task's row through its
// parent phase), one row for everything else.
func chromeTID(s *Span, phaseOf map[int64]string) int64 {
	phase := s.Phase
	if phase == "" {
		phase = phaseOf[s.Parent]
	}
	switch {
	case s.Task < 0:
		return 0
	case phase == PhaseMap:
		return 1000 + int64(s.Task)
	case phase == PhaseReduce:
		return 2000 + int64(s.Task)
	}
	return 0
}

// WriteChromeTrace writes the spans in Chrome trace_event JSON, loadable
// in chrome://tracing and https://ui.perfetto.dev.
func (s ReqTraceSnapshot) WriteChromeTrace(w io.Writer) error {
	phaseOf := make(map[int64]string, len(s.Spans))
	for _, sp := range s.Spans {
		phaseOf[sp.ID] = sp.Phase
	}
	ct := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(s.Spans))}
	for i := range s.Spans {
		sp := &s.Spans[i]
		cat := sp.Phase
		if cat == "" {
			cat = "span"
		}
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: sp.Name,
			Cat:  cat,
			Ph:   "X", // complete event: ts + dur
			TS:   sp.StartUS,
			Dur:  sp.DurUS,
			PID:  1,
			TID:  chromeTID(sp, phaseOf),
			Args: sp,
		})
	}
	return json.NewEncoder(w).Encode(ct)
}

// ValidateChromeTrace checks that data is structurally valid trace_event
// JSON: parseable, at least one event, and every event a complete ("X")
// event with a name, category and non-negative timing. It lets tests
// verify exported traces without eyeballing a viewer.
func ValidateChromeTrace(data []byte) error {
	var ct chromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		return fmt.Errorf("obs: invalid chrome trace: %w", err)
	}
	if len(ct.TraceEvents) == 0 {
		return fmt.Errorf("obs: chrome trace has no events")
	}
	for i, e := range ct.TraceEvents {
		if e.Name == "" || e.Cat == "" {
			return fmt.Errorf("obs: event %d missing name/cat", i)
		}
		if e.Ph != "X" {
			return fmt.Errorf("obs: event %d has ph %q, want \"X\"", i, e.Ph)
		}
		if e.TS < 0 || e.Dur < 0 {
			return fmt.Errorf("obs: event %d has negative timing", i)
		}
	}
	return nil
}

// TraceRing retains the most recent request traces for the
// /debug/trace/{id} endpoint: a bounded FIFO plus an ID index. Adding
// beyond capacity evicts the oldest trace.
type TraceRing struct {
	mu    sync.Mutex
	cap   int
	order []string
	byID  map[string]*Trace
}

// NewTraceRing creates a ring holding up to capacity traces (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{cap: capacity, byID: make(map[string]*Trace, capacity)}
}

// Add retains t, evicting the oldest trace when full.
func (r *TraceRing) Add(t *Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[t.id]; ok {
		return // duplicate ID: keep the first
	}
	r.order = append(r.order, t.id)
	r.byID[t.id] = t
	for len(r.order) > r.cap {
		delete(r.byID, r.order[0])
		r.order = r.order[1:]
	}
}

// Get returns the retained trace with the given ID, or nil.
func (r *TraceRing) Get(id string) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// Len returns the number of retained traces.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}
