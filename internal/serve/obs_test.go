package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"spatialhadoop/internal/obs"
)

// getWithTrace issues one GET and returns the response plus body.
func getWithTrace(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp, buf.Bytes()
}

// fetchTrace pulls the retained trace snapshot for a trace ID.
func fetchTrace(t *testing.T, ts *httptest.Server, id string) obs.ReqTraceSnapshot {
	t.Helper()
	resp, body := getWithTrace(t, ts, "/debug/trace/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: status %d, body %s", id, resp.StatusCode, body)
	}
	var snap obs.ReqTraceSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	return snap
}

// TestTraceEndToEnd drives one range query and checks its span tree:
// every serving response carries X-Trace-Id, the ID resolves on
// /debug/trace/{id}, and the trace shows the request's path through the
// stack — cache probe, admission queue wait, job phases, slot waits and
// DFS reads.
func TestTraceEndToEnd(t *testing.T) {
	sys := newServeSystem(t)
	// Forced MapReduce: the span assertions below describe the job path
	// (queue.wait, phases, slot.wait); the planner must not reroute the
	// query to the local engine.
	srv := New(sys, Config{Planner: PlannerMapReduce})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := getWithTrace(t, ts, "/rangequery?file=pts1&rect=1000,1000,6000,6000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if len(id) != 16 {
		t.Fatalf("X-Trace-Id = %q, want 16 hex chars", id)
	}

	snap := fetchTrace(t, ts, id)
	if snap.TraceID != id {
		t.Errorf("snapshot trace ID %q != header %q", snap.TraceID, id)
	}
	names := snap.SpanNames()
	for _, want := range []string{
		"request", "cache.probe", "exec", "encode", // serving layer
		"queue.wait", "job", // admission + job root
		"phase.filter", "phase.map", "phase.commit", // phases (map-only job)
		"slot.wait", // scheduler slot pool
		"dfs.read",  // result read-back
	} {
		if names[want] == 0 {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
	// The root span records the request's routing and outcome.
	root := snap.Spans[0]
	if root.Name != "request" || root.Parent != 0 {
		t.Fatalf("first span = %q parent %d, want root request span", root.Name, root.Parent)
	}
	if root.Attrs["endpoint"] != "range" || root.Attrs["status"] != "200" {
		t.Errorf("root attrs = %v, want endpoint=range status=200", root.Attrs)
	}
	// Spans form a tree: every parent ID exists.
	ids := map[int64]bool{}
	for _, sp := range snap.Spans {
		ids[sp.ID] = true
	}
	for _, sp := range snap.Spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("span %q has dangling parent %d", sp.Name, sp.Parent)
		}
	}
	// The job is a subtree of the request: its map attempts carry phase,
	// task and outcome and sit under phase.map, under job.
	byID := map[int64]obs.Span{}
	for _, sp := range snap.Spans {
		byID[sp.ID] = sp
	}
	attempts := 0
	for _, sp := range snap.Spans {
		if !sp.IsTaskAttempt() || sp.Phase != obs.PhaseMap {
			continue
		}
		attempts++
		phase := byID[sp.Parent]
		if phase.Name != "phase.map" || byID[phase.Parent].Name != "job" {
			t.Errorf("map attempt %s sits under %q under %q, want phase.map under job",
				sp.Name, phase.Name, byID[phase.Parent].Name)
		}
		if sp.Outcome != obs.OutcomeOK {
			t.Errorf("map attempt %s outcome %q, want ok", sp.Name, sp.Outcome)
		}
	}
	if attempts == 0 {
		t.Error("request trace holds no map attempt span")
	}
	var chrome bytes.Buffer
	if err := snap.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Errorf("chrome export of the request trace: %v", err)
	}

	// A cache hit runs no job: its trace has a hit probe and no exec span.
	resp2, _ := getWithTrace(t, ts, "/rangequery?file=pts1&rect=1000,1000,6000,6000")
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	id2 := resp2.Header.Get("X-Trace-Id")
	if id2 == id {
		t.Fatalf("trace IDs must be per-request, both %q", id)
	}
	snap2 := fetchTrace(t, ts, id2)
	names2 := snap2.SpanNames()
	if names2["exec"] != 0 || names2["job"] != 0 {
		t.Errorf("cache-hit trace ran a job: %v", names2)
	}
	var probeResult string
	for _, sp := range snap2.Spans {
		if sp.Name == "cache.probe" {
			probeResult = sp.Attrs["result"]
		}
	}
	if probeResult != "hit" {
		t.Errorf("cache.probe result = %q, want hit", probeResult)
	}

	// Unknown IDs 404.
	resp3, _ := getWithTrace(t, ts, "/debug/trace/ffffffffffffffff")
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", resp3.StatusCode)
	}
}

// TestExplainReport checks ?explain=1: the execution report is spliced
// into the JSON body, reflects the job's pruning and cache state, and
// never leaks into the cached bytes (hits stay byte-identical to misses).
func TestExplainReport(t *testing.T) {
	sys := newServeSystem(t)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const q = "/rangequery?file=pts1&rect=1000,1000,4000,4000"
	respMiss, bodyMiss := getWithTrace(t, ts, q+"&explain=1")
	if respMiss.StatusCode != http.StatusOK || respMiss.Header.Get("X-Cache") != "miss" {
		t.Fatalf("explain miss: status %d cache %q", respMiss.StatusCode, respMiss.Header.Get("X-Cache"))
	}
	var withExplain struct {
		Count   int `json:"count"`
		Explain struct {
			TraceID           string `json:"trace_id"`
			Cache             string `json:"cache"`
			Engine            string `json:"engine"`
			PartitionsTotal   int    `json:"partitions_total"`
			PartitionsScanned int    `json:"partitions_scanned"`
			PartitionsPruned  int    `json:"partitions_pruned"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(bodyMiss, &withExplain); err != nil {
		t.Fatalf("explained body is not JSON: %v\n%s", err, bodyMiss)
	}
	e := withExplain.Explain
	if e.TraceID != respMiss.Header.Get("X-Trace-Id") {
		t.Errorf("explain trace_id %q != header %q", e.TraceID, respMiss.Header.Get("X-Trace-Id"))
	}
	if e.Cache != "miss" {
		t.Errorf("explain cache = %q, want miss", e.Cache)
	}
	if e.PartitionsTotal <= 0 || e.PartitionsScanned <= 0 {
		t.Errorf("explain partitions: total %d scanned %d, want > 0", e.PartitionsTotal, e.PartitionsScanned)
	}
	if e.PartitionsScanned+e.PartitionsPruned != e.PartitionsTotal {
		t.Errorf("scanned %d + pruned %d != total %d", e.PartitionsScanned, e.PartitionsPruned, e.PartitionsTotal)
	}
	// The planner decision is visible both as the explain engine field and
	// the X-Engine header, and they agree.
	if e.Engine != PlannerLocal && e.Engine != PlannerMapReduce {
		t.Errorf("explain engine = %q, want local or mapreduce", e.Engine)
	}
	if hdr := respMiss.Header.Get("X-Engine"); hdr != e.Engine {
		t.Errorf("X-Engine %q != explain engine %q", hdr, e.Engine)
	}

	// The cache stores the plain body: a plain request after the explained
	// miss is a hit with no explain member.
	respPlain, bodyPlain := getWithTrace(t, ts, q)
	if respPlain.Header.Get("X-Cache") != "hit" {
		t.Fatalf("plain request after explained miss: X-Cache %q, want hit", respPlain.Header.Get("X-Cache"))
	}
	if bytes.Contains(bodyPlain, []byte(`"explain"`)) {
		t.Errorf("cached body contains explain report: %s", bodyPlain)
	}

	// An explained hit reports cache=hit with no job stats, and its body
	// minus the report matches the cached bytes.
	respHit, bodyHit := getWithTrace(t, ts, q+"&explain=1")
	if respHit.Header.Get("X-Cache") != "hit" {
		t.Fatalf("explained hit: X-Cache %q", respHit.Header.Get("X-Cache"))
	}
	var hitExplain struct {
		Count   int `json:"count"`
		Explain struct {
			Cache           string `json:"cache"`
			Engine          string `json:"engine"`
			PartitionsTotal int    `json:"partitions_total"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(bodyHit, &hitExplain); err != nil {
		t.Fatalf("explained hit body: %v", err)
	}
	if hitExplain.Explain.Cache != "hit" || hitExplain.Explain.PartitionsTotal != 0 {
		t.Errorf("explained hit report = %+v, want cache=hit with zero job stats", hitExplain.Explain)
	}
	if hitExplain.Explain.Engine != "cache" || respHit.Header.Get("X-Engine") != "cache" {
		t.Errorf("explained hit engine = %q header %q, want cache", hitExplain.Explain.Engine, respHit.Header.Get("X-Engine"))
	}
	if hitExplain.Count != withExplain.Count {
		t.Errorf("hit count %d != miss count %d", hitExplain.Count, withExplain.Count)
	}

	// PNG responses ignore explain (no JSON to splice into).
	respPlot, bodyPlot := getWithTrace(t, ts, "/plot?file=pts1&width=32&height=32&explain=1")
	if respPlot.StatusCode != http.StatusOK {
		t.Fatalf("plot status %d", respPlot.StatusCode)
	}
	if !bytes.HasPrefix(bodyPlot, []byte("\x89PNG")) {
		t.Errorf("explained plot is not a PNG")
	}
}

// TestMetricsPrometheus checks /metrics end to end: the body parses as
// Prometheus text, every family obeys the shadoop_[a-z_]+ naming rule,
// and the serving, cluster, runtime and hot-partition families are all
// present with sane values.
func TestMetricsPrometheus(t *testing.T) {
	sys := newServeSystem(t)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, q := range []string{
		"/rangequery?file=pts1&rect=1000,1000,6000,6000",
		"/rangequery?file=pts1&rect=1000,1000,6000,6000", // cache hit
		"/rangequery?file=pts1&rect=0,0,10000,10000",     // full scan → mapreduce
		"/knn?file=pts2&point=5000,5000&k=5",             // selective → local
	} {
		if resp, body := getWithTrace(t, ts, q); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", q, resp.StatusCode, body)
		}
	}

	resp, body := getWithTrace(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	pm, err := obs.ParsePrometheus(body)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}

	families := map[string]bool{}
	for _, s := range pm.Samples {
		base := s.Name
		base = strings.TrimSuffix(base, "_bucket")
		base = strings.TrimSuffix(base, "_sum")
		base = strings.TrimSuffix(base, "_count")
		base = strings.TrimSuffix(base, "_total")
		families[base] = true
	}
	for fam := range families {
		if !obs.ValidPromName(fam) {
			t.Errorf("family %q violates the shadoop_[a-z_]+ naming rule", fam)
		}
	}

	reqs, ok := pm.Get("shadoop_serve_req_total", map[string]string{"endpoint": "range"})
	if !ok || reqs < 2 {
		t.Errorf("shadoop_serve_req_total{endpoint=range} = %v (ok=%v), want >= 2", reqs, ok)
	}
	if _, ok := pm.Get("shadoop_serve_cache_hits_total", nil); !ok {
		t.Errorf("missing shadoop_serve_cache_hits_total")
	}
	if v, ok := pm.Get("shadoop_serve_latency_quantile_us", map[string]string{"endpoint": "range", "quantile": "0.99"}); !ok || v <= 0 {
		t.Errorf("p99 gauge for range = %v (ok=%v), want > 0", v, ok)
	}
	if g, ok := pm.Get("shadoop_go_goroutines", nil); !ok || g < 1 {
		t.Errorf("shadoop_go_goroutines = %v (ok=%v)", g, ok)
	}
	if _, ok := pm.Get("shadoop_cluster_slots_cap", nil); !ok {
		t.Errorf("missing shadoop_cluster_slots_cap")
	}
	// Memory-tier gauges and planner counters: the selective kNN above ran
	// locally (pinning partitions), the full scan ran as a job.
	if v, ok := pm.Get("shadoop_serve_memtier_pinned_partitions", nil); !ok || v < 1 {
		t.Errorf("shadoop_serve_memtier_pinned_partitions = %v (ok=%v), want >= 1", v, ok)
	}
	if v, ok := pm.Get("shadoop_serve_memtier_bytes", nil); !ok || v <= 0 {
		t.Errorf("shadoop_serve_memtier_bytes = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := pm.Get("shadoop_serve_planner_local_total", nil); !ok || v < 1 {
		t.Errorf("shadoop_serve_planner_local_total = %v (ok=%v), want >= 1", v, ok)
	}
	if v, ok := pm.Get("shadoop_serve_planner_mapreduce_total", nil); !ok || v < 1 {
		t.Errorf("shadoop_serve_planner_mapreduce_total = %v (ok=%v), want >= 1", v, ok)
	}
	// Hot-partition telemetry rides the same exposition.
	foundScan := false
	for _, s := range pm.Samples {
		if s.Name == "shadoop_ops_partition_scans_total" && s.Labels["file"] == "pts1" {
			foundScan = true
		}
	}
	if !foundScan {
		t.Errorf("no shadoop_ops_partition_scans_total{file=pts1} series")
	}
	// Histograms survive the round trip with their label sets.
	if _, ok := pm.Types["shadoop_serve_latency_us"]; !ok {
		t.Errorf("missing histogram family shadoop_serve_latency_us")
	}

	// /metrics.json still serves the structured dump.
	respJSON, bodyJSON := getWithTrace(t, ts, "/metrics.json")
	if respJSON.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.json status %d", respJSON.StatusCode)
	}
	var dump struct {
		Serve  *obs.Snapshot `json:"serve"`
		System *obs.Snapshot `json:"system"`
	}
	if err := json.Unmarshal(bodyJSON, &dump); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if dump.Serve == nil || dump.System == nil {
		t.Fatalf("/metrics.json missing sections")
	}
}

// TestPartitionsReport checks /debug/partitions: after queries with
// different footprints the skew report ranks partitions hottest-first
// and its counts are consistent.
func TestPartitionsReport(t *testing.T) {
	sys := newServeSystem(t)
	srv := New(sys, Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Whole-file scans touch every partition; corner queries concentrate
	// heat on a subset, producing measurable skew.
	for _, q := range []string{
		"/rangequery?file=pts1&rect=0,0,10000,10000",
		"/rangequery?file=pts1&rect=0,0,1500,1500",
		"/rangequery?file=pts1&rect=0,0,1500,1500",
		"/rangequery?file=pts1&rect=0,0,1000,1000",
	} {
		if resp, body := getWithTrace(t, ts, q); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", q, resp.StatusCode, body)
		}
	}

	resp, body := getWithTrace(t, ts, "/debug/partitions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/partitions status %d", resp.StatusCode)
	}
	var rep struct {
		Files []struct {
			File       string  `json:"file"`
			Scans      int64   `json:"scans"`
			Prunes     int64   `json:"prunes"`
			Skew       float64 `json:"skew"`
			Partitions []struct {
				Partition string `json:"partition"`
				Scans     int64  `json:"scans"`
				Records   int64  `json:"records"`
				Matches   int64  `json:"matches"`
			} `json:"partitions"`
		} `json:"files"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decode partitions report: %v", err)
	}
	var pts1 *struct {
		File       string  `json:"file"`
		Scans      int64   `json:"scans"`
		Prunes     int64   `json:"prunes"`
		Skew       float64 `json:"skew"`
		Partitions []struct {
			Partition string `json:"partition"`
			Scans     int64  `json:"scans"`
			Records   int64  `json:"records"`
			Matches   int64  `json:"matches"`
		} `json:"partitions"`
	}
	for i := range rep.Files {
		if rep.Files[i].File == "pts1" {
			pts1 = &rep.Files[i]
		}
	}
	if pts1 == nil {
		t.Fatalf("no pts1 entry in %s", body)
	}
	if len(pts1.Partitions) < 2 {
		t.Skipf("pts1 indexed into %d partition(s); skew needs >= 2", len(pts1.Partitions))
	}
	if pts1.Skew <= 1 {
		t.Errorf("skew = %v, want > 1 after concentrated corner queries", pts1.Skew)
	}
	for i := 1; i < len(pts1.Partitions); i++ {
		if pts1.Partitions[i].Scans > pts1.Partitions[i-1].Scans {
			t.Errorf("partitions not hottest-first: %v then %v", pts1.Partitions[i-1], pts1.Partitions[i])
		}
	}
	var sum int64
	for _, p := range pts1.Partitions {
		sum += p.Scans
	}
	if sum != pts1.Scans {
		t.Errorf("file scans %d != partition sum %d", pts1.Scans, sum)
	}
}

// TestJoinExplainAndHeat: a join is planned like every other query, so
// /join?explain=1 reports both inputs' partitions, split into scanned and
// pruned, and /debug/partitions shows the same decisions for each input.
func TestJoinExplainAndHeat(t *testing.T) {
	sys := newServeSystem(t)
	srv := New(sys, Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := getWithTrace(t, ts, "/join?left=a&right=b&explain=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d body %s", resp.StatusCode, body)
	}
	var joined struct {
		Count   int `json:"count"`
		Explain struct {
			Engine            string `json:"engine"`
			PartitionsTotal   int    `json:"partitions_total"`
			PartitionsScanned int    `json:"partitions_scanned"`
			PartitionsPruned  int    `json:"partitions_pruned"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(body, &joined); err != nil {
		t.Fatalf("explained join is not JSON: %v\n%s", err, body)
	}
	e := joined.Explain
	parts := map[string]int{}
	for _, name := range []string{"a", "b"} {
		f, err := sys.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		parts[name] = len(f.Splits())
	}
	if e.Engine != PlannerMapReduce || joined.Count == 0 {
		t.Errorf("join engine %q with %d pairs, want mapreduce and some pairs", e.Engine, joined.Count)
	}
	if e.PartitionsTotal != parts["a"]+parts["b"] || e.PartitionsScanned == 0 || e.PartitionsScanned+e.PartitionsPruned != e.PartitionsTotal {
		t.Errorf("explain partitions: total %d scanned %d pruned %d, want total %d+%d = scanned + pruned, some scanned",
			e.PartitionsTotal, e.PartitionsScanned, e.PartitionsPruned, parts["a"], parts["b"])
	}

	var rep struct {
		Files []struct {
			File       string `json:"file"`
			Scans      int64  `json:"scans"`
			Prunes     int64  `json:"prunes"`
			Partitions []struct {
				Partition string `json:"partition"`
			} `json:"partitions"`
		} `json:"files"`
	}
	if resp, body := getWithTrace(t, ts, "/debug/partitions"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/partitions status %d", resp.StatusCode)
	} else if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decode partitions report: %v", err)
	}
	var scans, prunes int64
	for _, fh := range rep.Files {
		if fh.Scans == 0 || len(fh.Partitions) != parts[fh.File] || fh.Scans+fh.Prunes != int64(parts[fh.File]) {
			t.Errorf("input %s: %d scans + %d prunes over %d partitions, want one decision for each of its %d partitions, some scanned",
				fh.File, fh.Scans, fh.Prunes, len(fh.Partitions), parts[fh.File])
		}
		scans, prunes = scans+fh.Scans, prunes+fh.Prunes
		delete(parts, fh.File)
	}
	if len(parts) != 0 || scans != int64(e.PartitionsScanned) || prunes != int64(e.PartitionsPruned) {
		t.Errorf("heat: inputs %v missing, %d scans and %d prunes; explain scanned %d and pruned %d",
			parts, scans, prunes, e.PartitionsScanned, e.PartitionsPruned)
	}
}

// TestAccessLog checks the JSONL access log: one line per request with
// trace ID, op, status and latency.
func TestAccessLog(t *testing.T) {
	sys := newServeSystem(t)
	var logBuf bytes.Buffer
	srv := New(sys, Config{AccessLog: &syncBuffer{buf: &logBuf}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp1, _ := getWithTrace(t, ts, "/rangequery?file=pts1&rect=1000,1000,2000,2000")
	resp2, _ := getWithTrace(t, ts, "/rangequery?file=nope&rect=0,0,1,1")
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("missing file: status %d, want 404", resp2.StatusCode)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), logBuf.String())
	}
	type entry struct {
		TraceID   string `json:"trace_id"`
		Op        string `json:"op"`
		Status    int    `json:"status"`
		LatencyUS int64  `json:"latency_us"`
		Cache     string `json:"cache"`
	}
	var e1, e2 entry
	if err := json.Unmarshal([]byte(lines[0]), &e1); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &e2); err != nil {
		t.Fatalf("line 2: %v", err)
	}
	if e1.TraceID != resp1.Header.Get("X-Trace-Id") || e1.Op != "range" || e1.Status != 200 || e1.Cache != "miss" {
		t.Errorf("line 1 = %+v", e1)
	}
	if e2.Status != 404 || e2.LatencyUS < 0 {
		t.Errorf("line 2 = %+v", e2)
	}
}

// syncBuffer adapts bytes.Buffer for concurrent writer use in tests (the
// server serializes writes itself; this guards the test's reads).
type syncBuffer struct {
	buf *bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) { return b.buf.Write(p) }

// TestTraceIDFormat pins the wire format of trace IDs so dashboards can
// rely on it.
func TestTraceIDFormat(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	sys := newServeSystem(t)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := getWithTrace(t, ts, "/healthz")
	if id := resp.Header.Get("X-Trace-Id"); !re.MatchString(id) {
		t.Errorf("X-Trace-Id %q is not 16 lowercase hex chars", id)
	}
}
