package obs

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

func TestReqTraceSpanTree(t *testing.T) {
	tr := NewTrace("abc123")
	ctx := ContextWithTrace(context.Background(), tr)

	reqCtx, root := StartSpan(ctx, "request")
	root.SetAttr("path", "/range")
	execCtx, exec := StartSpan(reqCtx, "exec")
	_, read := StartSpan(execCtx, "dfs.read")
	read.End()
	exec.End()
	_, enc := StartSpan(reqCtx, "encode")
	enc.End()
	root.End()

	snap := tr.Snapshot()
	if snap.TraceID != "abc123" {
		t.Fatalf("TraceID = %q", snap.TraceID)
	}
	if len(snap.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(snap.Spans))
	}
	byName := map[string]Span{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
	}
	if byName["request"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["request"].Parent)
	}
	if byName["exec"].Parent != byName["request"].ID {
		t.Errorf("exec parent = %d, want %d", byName["exec"].Parent, byName["request"].ID)
	}
	if byName["dfs.read"].Parent != byName["exec"].ID {
		t.Errorf("dfs.read parent = %d, want %d", byName["dfs.read"].Parent, byName["exec"].ID)
	}
	if byName["encode"].Parent != byName["request"].ID {
		t.Errorf("encode parent = %d, want %d", byName["encode"].Parent, byName["request"].ID)
	}
	if byName["request"].Attrs["path"] != "/range" {
		t.Errorf("attrs = %v", byName["request"].Attrs)
	}
	names := snap.SpanNames()
	if names["request"] != 1 || names["exec"] != 1 {
		t.Errorf("SpanNames = %v", names)
	}
	if snap.DurUS != byName["request"].DurUS {
		t.Errorf("snapshot DurUS %d != root span %d", snap.DurUS, byName["request"].DurUS)
	}
}

// TestSnapshotDurIsRootDur: a child that ends after the root (an abandoned
// deadline attempt, a late read) with a longer duration must not become
// the request's duration, and a span still open counts for nothing.
func TestSnapshotDurIsRootDur(t *testing.T) {
	tr := NewTrace("late")
	ctx := ContextWithTrace(context.Background(), tr)
	reqCtx, root := StartSpan(ctx, "request")
	_, late := StartSpan(reqCtx, "attempt")
	_, open := StartSpan(reqCtx, "abandoned")
	root.End()
	time.Sleep(3 * time.Millisecond)
	late.End()

	snap := tr.Snapshot()
	rootDur, lateDur := snap.Spans[0].DurUS, snap.Spans[1].DurUS
	if lateDur <= rootDur {
		t.Fatalf("setup: child %dµs does not outlast root %dµs", lateDur, rootDur)
	}
	if snap.DurUS != rootDur {
		t.Errorf("snapshot DurUS = %d, want the root's %d (child %d)", snap.DurUS, rootDur, lateDur)
	}
	if snap.Spans[2].DurUS != 0 {
		t.Errorf("open span DurUS = %d, want 0", snap.Spans[2].DurUS)
	}
	open.End()
}

// TestSnapshotTypedFieldsOnlyWhenEnded: an open span's owner may still be
// writing its typed fields, so a snapshot shows them only once it ended.
func TestSnapshotTypedFieldsOnlyWhenEnded(t *testing.T) {
	tr := NewJobTrace("job")
	_, s := StartSpan(ContextWithTrace(context.Background(), tr), "map-0")
	s.Phase, s.Task, s.RecordsIn = PhaseMap, 0, 7
	if got := tr.Spans()[0]; got.Phase != "" || got.RecordsIn != 0 || got.Name != "map-0" {
		t.Errorf("open span snapshot = %+v, want identity only", got)
	}
	s.Outcome = OutcomeOK
	s.End()
	if got := tr.Spans()[0]; got.Phase != PhaseMap || got.RecordsIn != 7 || got.Outcome != OutcomeOK {
		t.Errorf("ended span snapshot = %+v", got)
	}
}

func TestStartSpanWithoutTrace(t *testing.T) {
	ctx := context.Background()
	got, s := StartSpan(ctx, "anything")
	if got != ctx {
		t.Fatal("context should be returned unchanged without a trace")
	}
	if s != nil {
		t.Fatal("span should be nil without a trace")
	}
	// All methods are no-ops on nil.
	s.SetAttr("k", "v")
	s.End()
	s.End()
	if TraceFrom(ctx) != nil {
		t.Fatal("TraceFrom on bare context should be nil")
	}
}

func TestReqTraceSpanCap(t *testing.T) {
	tr := NewTrace("cap")
	ctx := ContextWithTrace(context.Background(), tr)
	for i := 0; i < MaxReqSpans+5; i++ {
		_, s := StartSpan(ctx, "s")
		s.End()
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != MaxReqSpans {
		t.Fatalf("got %d spans, want cap %d", len(snap.Spans), MaxReqSpans)
	}
	if snap.Dropped != 5 {
		t.Fatalf("Dropped = %d, want 5", snap.Dropped)
	}

	// A job trace has no cap.
	jt := NewJobTrace("job")
	jctx := ContextWithTrace(context.Background(), jt)
	for i := 0; i < MaxReqSpans+5; i++ {
		_, s := StartSpan(jctx, "s")
		s.End()
	}
	if snap := jt.Snapshot(); len(snap.Spans) != MaxReqSpans+5 || snap.Dropped != 0 {
		t.Fatalf("job trace kept %d spans, dropped %d; want all %d", len(snap.Spans), snap.Dropped, MaxReqSpans+5)
	}
}

func TestReqTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("conc")
	ctx := ContextWithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, s := StartSpan(ctx, "task")
				s.SetAttr("k", "v")
				s.Task = i
				s.End()
				tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Snapshot().Spans); n != 160 {
		t.Fatalf("got %d spans, want 160", n)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(2)
	t1, t2, t3 := NewTrace("t1"), NewTrace("t2"), NewTrace("t3")
	r.Add(t1)
	r.Add(t2)
	if r.Len() != 2 || r.Get("t1") != t1 || r.Get("t2") != t2 {
		t.Fatal("ring should hold both traces")
	}
	r.Add(t3) // evicts t1
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if r.Get("t1") != nil {
		t.Fatal("t1 should have been evicted")
	}
	if r.Get("t2") != t2 || r.Get("t3") != t3 {
		t.Fatal("t2/t3 should survive")
	}
	// Duplicate IDs keep the first entry.
	dup := NewTrace("t3")
	r.Add(dup)
	if r.Get("t3") != t3 || r.Len() != 2 {
		t.Fatal("duplicate Add should be ignored")
	}
}

func TestNewTraceID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestReqTraceSnapshotIsDeepCopy(t *testing.T) {
	tr := NewTrace("deep")
	ctx := ContextWithTrace(context.Background(), tr)
	_, s := StartSpan(ctx, "a")
	s.SetAttr("k", "v1")
	snap := tr.Snapshot()
	s.SetAttr("k", "v2")
	s.End()
	if snap.Spans[0].Attrs["k"] != "v1" {
		t.Fatal("snapshot attrs should not see later mutation")
	}
}

// jobShapedTrace builds job → map-0 (task 0) + shuffle, all ended.
func jobShapedTrace() *Trace {
	tr := NewJobTrace("test-job")
	ctx, root := StartSpan(ContextWithTrace(context.Background(), tr), "job")
	root.Phase, root.Task = PhaseJob, -1
	_, m := StartSpan(ctx, "map-0")
	m.Phase, m.Partition = PhaseMap, "c3"
	m.RecordsIn, m.RecordsOut, m.Bytes = 10, 4, 123
	m.Outcome = OutcomeOK
	m.End()
	_, s := StartSpan(ctx, "shuffle")
	s.Phase, s.Task = PhaseShuffle, -1
	s.End()
	root.Outcome = OutcomeOK
	root.End()
	return tr
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	tr := jobShapedTrace()
	var buf bytes.Buffer
	if err := tr.Snapshot().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := ParseJSONL(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Phase != PhaseMap || !spans[1].IsTaskAttempt() {
		t.Errorf("map span links wrong: %+v", spans[1])
	}
	if spans[1].Partition != "c3" || spans[1].RecordsIn != 10 || spans[1].Bytes != 123 {
		t.Errorf("map span payload lost: %+v", spans[1])
	}
	if spans[1].Outcome != OutcomeOK || spans[1].DurUS < 1 {
		t.Errorf("map span timing/outcome: %+v", spans[1])
	}
	if spans[2].Task != -1 || spans[2].IsTaskAttempt() {
		t.Errorf("shuffle span passes for a task: %+v", spans[2])
	}
}

func TestChromeTraceExportValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := jobShapedTrace().Snapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	// A request trace (no phases) exports too.
	tr := NewTrace("req")
	_, s := StartSpan(ContextWithTrace(context.Background(), tr), "request")
	s.End()
	buf.Reset()
	if err := tr.Snapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace([]byte("{}")); err == nil {
		t.Error("empty trace should not validate")
	}
	if err := ValidateChromeTrace([]byte("not json")); err == nil {
		t.Error("garbage should not validate")
	}
}

func BenchmarkStartSpanNoTrace(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, s := StartSpan(ctx, "x")
		s.End()
	}
}
