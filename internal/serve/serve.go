package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

// Config configures a Server.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// CacheSize bounds the result cache in entries (default 256; negative
	// disables caching, zero means default).
	CacheSize int
	// MaxInFlight is the number of jobs the cluster runs concurrently
	// (default 4); further admitted jobs wait in the queue.
	MaxInFlight int
	// QueueDepth bounds the admission queue (default 64); beyond it
	// requests are rejected with 429.
	QueueDepth int
	// JobDeadline bounds each admitted job's run time (0 = none).
	JobDeadline time.Duration
	// AccessLog, when non-nil, receives one JSON line per request (trace
	// ID, method, op, status, latency, cache state, bytes). Writes are
	// serialized; rotation is the caller's concern.
	AccessLog io.Writer
	// MemTierBytes budgets the in-memory partition tier backing local
	// query execution (default 64 MiB; negative disables the tier, zero
	// means default).
	MemTierBytes int64
	// Planner selects the query engine per request: PlannerAuto (default),
	// PlannerLocal, PlannerMapReduce, or PlannerSharded. Unrecognized
	// values fall back to auto; the CLI validates before it gets here. A
	// request can override the mode with ?engine=; the result cache is
	// keyed on (query, epoch) only, never the engine, because every
	// engine produces byte-identical bodies.
	Planner string
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MemTierBytes == 0 {
		c.MemTierBytes = 64 << 20
	}
	if !ValidPlanner(c.Planner) || c.Planner == "" {
		c.Planner = PlannerAuto
	}
	return c
}

// Server is the HTTP query front end. Range and kNN run on the serving
// executor unless planned to MapReduce; join, plot and MapReduce-planned
// queries run as jobs under the cluster's admission controller and shared
// slot pool, so their load is bounded by the modelled cluster capacity,
// with overload surfacing as 429 instead of collapse.
type Server struct {
	sys      *core.System
	cfg      Config
	cache    *Cache
	mt       *MemTier // nil when the memory tier is disabled
	flight   flightGroup
	reg      *obs.Registry
	ring     *obs.TraceRing
	hs       *http.Server
	reqID    atomic.Int64
	draining atomic.Bool

	// wins holds one bounded sample window of recent latencies per
	// endpoint, backing the exact p50/p95/p99 gauges on /metrics.
	winMu sync.Mutex
	wins  map[string]*obs.SampleWindow

	logMu sync.Mutex // serializes AccessLog writes
}

// latencyWindowSize bounds the per-endpoint latency sample window the
// exact quantile gauges are computed over.
const latencyWindowSize = 2048

// traceRingSize bounds the in-memory ring of recent request traces served
// by /debug/trace/{id}.
const traceRingSize = 256

// New creates a Server over a running System and installs the admission
// controller on its cluster.
func New(sys *core.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		sys:   sys,
		cfg:   cfg,
		cache: NewCache(cfg.CacheSize, reg),
		reg:   reg,
		ring:  obs.NewTraceRing(traceRingSize),
		wins:  make(map[string]*obs.SampleWindow),
	}
	if cfg.MemTierBytes > 0 {
		s.mt = NewMemTier(cfg.MemTierBytes, reg)
		// Eager invalidation: replacing or deleting a file drops its pinned
		// partitions immediately. Epoch-keyed lookups are the correctness
		// backstop (a stale pin can never serve a fresh epoch); the hook
		// just releases the memory at publication time. Last server on a
		// shared system wins the single hook slot, which is fine for the
		// same reason.
		sys.FS().SetEpochHook(func(name string, _ int64) { s.mt.Invalidate(name) })
	}
	sys.Cluster().SetAdmission(mapreduce.AdmissionConfig{
		MaxInFlight: cfg.MaxInFlight,
		QueueDepth:  cfg.QueueDepth,
		JobDeadline: cfg.JobDeadline,
	})
	if m := sys.Cluster().Master(); m != nil {
		// Feed DFS epochs into heartbeat replies so serving workers drop
		// pins obsoleted by rewrites (the sharded engine re-installs this
		// per query in case the master starts later).
		m.SetEpochSource(sys.FS().Epochs)
	}
	return s
}

// Metrics returns the serving-layer metrics registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Cache returns the result cache (tests probe its state directly).
func (s *Server) ResultCache() *Cache { return s.cache }

// Handler returns the server's HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/rangequery", s.handle("range", s.handleRange))
	mux.HandleFunc("/knn", s.handle("knn", s.handleKNN))
	mux.HandleFunc("/join", s.handle("join", s.handleJoin))
	mux.HandleFunc("/plot", s.handle("plot", s.handlePlot))
	mux.HandleFunc("/healthz", s.handle("healthz", func(w http.ResponseWriter, r *http.Request) error {
		s.handleHealthz(w, r)
		return nil
	}))
	mux.HandleFunc("/metrics", s.handle("metrics", s.handleMetrics))
	mux.HandleFunc("/metrics.json", s.handle("metrics_json", s.handleMetricsJSON))
	mux.HandleFunc("/debug/trace/{id}", s.handle("trace", s.handleTrace))
	mux.HandleFunc("/debug/partitions", s.handle("partitions", s.handlePartitions))
	return mux
}

// ListenAndServe serves on cfg.Addr until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on ln until Shutdown. Like http.Server.Serve it returns
// http.ErrServerClosed after a graceful shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.hs = &http.Server{Handler: s.Handler()}
	return s.hs.Serve(ln)
}

// Shutdown drains gracefully: stop admitting (healthz flips to 503 for
// load balancers), let in-flight HTTP handlers finish (each may span
// several jobs, e.g. the two kNN rounds), then drain the cluster's
// admission queue and stamp a final metrics snapshot.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.hs != nil {
		err = s.hs.Shutdown(ctx)
	}
	if derr := s.sys.Cluster().Drain(ctx); err == nil {
		err = derr
	}
	s.reg.SetGauge("serve.draining", 1)
	return err
}

// statusRecorder captures the status code and body size a handler writes,
// for the access log and the request trace's root span.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

// handle wraps an endpoint with request-scoped tracing, metrics and error
// mapping: it mints a trace ID (returned as X-Trace-Id and retrievable
// via /debug/trace/{id}), opens the root "request" span the downstream
// layers hang their spans off, counts the request into per-endpoint
// labeled metrics and the exact-quantile latency window, and appends one
// access-log line.
func (s *Server) handle(name string, fn func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := obs.NewTrace(obs.NewTraceID())
		ctx := obs.ContextWithTrace(r.Context(), tr)
		ctx, root := obs.StartSpan(ctx, "request")
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)
		root.SetAttr("endpoint", name)
		r = r.WithContext(ctx)
		w.Header().Set("X-Trace-Id", tr.TraceID())
		sr := &statusRecorder{ResponseWriter: w}

		s.reg.IncLabeled("serve.req", 1, "endpoint", name)
		err := fn(sr, r)
		if err != nil {
			s.reg.IncLabeled("serve.err", 1, "endpoint", name)
			writeError(sr, err)
		}
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		root.SetAttr("status", strconv.Itoa(sr.status))
		root.End()
		// The trace enters the ring only after the root span ends: every
		// span writer has returned, so readers see a quiescent tree.
		s.ring.Add(tr)

		elapsed := time.Since(start)
		us := float64(elapsed.Microseconds())
		s.reg.ObserveLabeled("serve.latency_us", us, "endpoint", name)
		s.latencyWindow(name).Observe(us)
		s.logAccess(r, name, sr, tr.TraceID(), elapsed)
	}
}

// latencyWindow returns (creating on first use) the endpoint's bounded
// latency sample window.
func (s *Server) latencyWindow(name string) *obs.SampleWindow {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	w, ok := s.wins[name]
	if !ok {
		w = obs.NewSampleWindow(latencyWindowSize)
		s.wins[name] = w
	}
	return w
}

// logAccess appends one JSONL access-log line (no-op without AccessLog).
func (s *Server) logAccess(r *http.Request, name string, sr *statusRecorder, traceID string, d time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	line, err := json.Marshal(struct {
		TS        string `json:"ts"`
		TraceID   string `json:"trace_id"`
		Method    string `json:"method"`
		Path      string `json:"path"`
		Op        string `json:"op"`
		Status    int    `json:"status"`
		LatencyUS int64  `json:"latency_us"`
		Cache     string `json:"cache,omitempty"`
		Bytes     int64  `json:"bytes"`
	}{
		TS:        time.Now().UTC().Format(time.RFC3339Nano),
		TraceID:   traceID,
		Method:    r.Method,
		Path:      r.URL.RequestURI(),
		Op:        name,
		Status:    sr.status,
		LatencyUS: d.Microseconds(),
		Cache:     sr.Header().Get("X-Cache"),
		Bytes:     sr.bytes,
	})
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.cfg.AccessLog.Write(append(line, '\n'))
	s.logMu.Unlock()
}

// badRequestError marks client errors (400).
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// notFoundError marks lookups of server-side state that does not exist
// (e.g. an evicted or unknown trace ID).
type notFoundError struct{ msg string }

func (e *notFoundError) Error() string { return e.msg }

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var br *badRequestError
	var nf *notFoundError
	switch {
	case errors.As(err, &br):
		code = http.StatusBadRequest
	case errors.As(err, &nf):
		code = http.StatusNotFound
	case errors.Is(err, mapreduce.ErrOverloaded):
		code = http.StatusTooManyRequests
	case errors.Is(err, mapreduce.ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, dfs.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Fixed field order keeps even error bodies deterministic.
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
	w.Write(append(body, '\n'))
}

// explainJSON is the execution report `?explain=1` inlines into JSON
// responses. Engine names who built the body ("local", "mapreduce",
// "sharded", or "cache" when no engine ran); execution fields are zero on
// cache hits.
// The partition fields are the query plan's, whichever engine drove it:
// partitions_scanned counts the partitions the final round searched (for
// a join, those of either input that joined at least one kept pair, out
// of both inputs' total). The MapReduce job fields (shuffle,
// retries, phase times) stay zero for the other engines.
type explainJSON struct {
	TraceID           string `json:"trace_id"`
	Cache             string `json:"cache"`
	Engine            string `json:"engine"`
	PartitionsTotal   int    `json:"partitions_total"`
	PartitionsScanned int    `json:"partitions_scanned"`
	PartitionsPruned  int    `json:"partitions_pruned"`
	ShuffleBytes      int64  `json:"shuffle_bytes"`
	Retries           int64  `json:"retries"`
	Speculative       int64  `json:"speculative"`
	MapUS             int64  `json:"map_us"`
	ShuffleUS         int64  `json:"shuffle_us"`
	ReduceUS          int64  `json:"reduce_us"`
	CommitUS          int64  `json:"commit_us"`
	// Sharded-engine scatter/gather accounting (zero for other engines):
	// fan-out counts partitions scattered and calls the exec calls that
	// carried them, one per rendezvous-first holder (both over both kNN
	// rounds), remote/local split the partitions by executor, and the
	// fallback fields count partitions rerouted after a holder was lost
	// mid-query.
	ShardFanout        int `json:"shard_fanout"`
	ShardCalls         int `json:"shard_calls"`
	ShardRemote        int `json:"shard_remote"`
	ShardLocal         int `json:"shard_local"`
	ShardFallbackPeer  int `json:"shard_fallback_peer"`
	ShardFallbackLocal int `json:"shard_fallback_local"`
}

func buildExplain(traceID, cache string, meta *execMeta) explainJSON {
	e := explainJSON{TraceID: traceID, Cache: cache, Engine: "cache"}
	if meta == nil {
		return e
	}
	e.Engine = meta.engine
	e.PartitionsTotal = meta.stats.PartitionsTotal
	e.PartitionsScanned = meta.stats.PartitionsConsulted
	e.PartitionsPruned = meta.stats.PartitionsPruned
	if sh := meta.shard; sh != nil {
		e.ShardFanout = sh.fanout
		e.ShardCalls = sh.calls
		e.ShardRemote = sh.remote
		e.ShardLocal = sh.localExec
		e.ShardFallbackPeer = sh.fallbackPeer
		e.ShardFallbackLocal = sh.fallbackLocal
	}
	rep := meta.rep
	if rep == nil {
		return e
	}
	e.ShuffleBytes = rep.Counters[mapreduce.CounterShuffleBytes]
	e.Retries = rep.Counters[mapreduce.CounterTaskRetries]
	e.Speculative = rep.Counters[mapreduce.CounterSpecLaunched]
	e.MapUS = rep.MapTime.Microseconds()
	e.ShuffleUS = rep.ShuffleTime.Microseconds()
	e.ReduceUS = rep.ReduceTime.Microseconds()
	e.CommitUS = rep.CommitTime.Microseconds()
	return e
}

// spliceExplain inserts `"explain":<report>` as the last member of the
// response's top-level JSON object. The cache stores the plain body and
// the report is spliced per response, so explained and plain responses
// stay byte-identical up to the splice and cache hits stay byte-identical
// to misses.
func spliceExplain(body []byte, e explainJSON) []byte {
	rep, err := json.Marshal(e)
	if err != nil {
		return body
	}
	i := bytes.LastIndexByte(body, '}')
	if i < 0 {
		return body
	}
	var out bytes.Buffer
	out.Grow(len(body) + len(rep) + 12)
	out.Write(body[:i])
	// An empty object ({}) takes the member without a leading comma.
	j := bytes.LastIndexByte(body[:i], '{')
	if j < 0 || len(bytes.TrimSpace(body[j+1:i])) > 0 {
		out.WriteByte(',')
	}
	out.WriteString(`"explain":`)
	out.Write(rep)
	out.Write(body[i:])
	return out.Bytes()
}

// respond serves from the cache when possible, otherwise builds the body
// under an "exec" span — coalescing identical in-flight keys so a
// thundering herd on one cold key runs one build — caches it and writes
// it. Cache state travels in the X-Cache header ("hit", "miss", or
// "coalesced" for requests that drafted behind another request's build)
// and the engine that built the body in X-Engine, so hit, miss and
// coalesced bodies stay byte-identical (the concurrency suite compares
// bodies against serial oracles); `?explain=1` splices the execution
// report into JSON bodies after the cache, so it never poisons that
// identity.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, key, contentType string, build func(ctx context.Context) ([]byte, *execMeta, error)) error {
	ctx := r.Context()
	explain := r.URL.Query().Get("explain") == "1" && contentType == "application/json"
	traceID := w.Header().Get("X-Trace-Id")

	_, probe := obs.StartSpan(ctx, "cache.probe")
	body, hit := s.cache.Get(key)
	if hit {
		probe.SetAttr("result", "hit")
	} else {
		probe.SetAttr("result", "miss")
	}
	probe.End()

	var meta *execMeta
	coalesced := false
	if !hit {
		execCtx, exec := obs.StartSpan(ctx, "exec")
		var err error
		body, meta, coalesced, err = s.flight.do(execCtx, key, func() ([]byte, *execMeta, error) {
			b, m, err := build(execCtx)
			if err != nil {
				return nil, nil, err
			}
			s.cache.Put(key, b)
			return b, m, nil
		})
		exec.End()
		if err != nil {
			return err
		}
		if coalesced {
			s.reg.Inc("serve.flight.coalesced", 1)
		}
	}

	cacheState := "miss"
	switch {
	case hit:
		cacheState = "hit"
	case coalesced:
		cacheState = "coalesced"
	}
	engine := "cache"
	if meta != nil {
		engine = meta.engine
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Cache", cacheState)
	w.Header().Set("X-Engine", engine)
	if explain {
		body = spliceExplain(body, buildExplain(traceID, cacheState, meta))
	}
	// Declaring the length keeps net/http from chunking large bodies,
	// which halves the write syscalls and lets clients pre-size reads.
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, enc := obs.StartSpan(ctx, "encode")
	enc.SetAttr("bytes", strconv.Itoa(len(body)))
	_, err := w.Write(body)
	enc.End()
	return err
}

// tempOut allocates a unique DFS output name for one request, so
// concurrent queries over the same file never clobber each other's job
// output (the ops default names are fixed per input file).
func (s *Server) tempOut(file string) string {
	return fmt.Sprintf("%s.serve.%d", file, s.reqID.Add(1))
}

// parseRect parses "x1,y1,x2,y2" accepting any pair of opposite corners.
func parseRect(s string) (geom.Rect, error) {
	parts := strings.SplitN(s, ",", 4)
	if len(parts) != 4 {
		return geom.Rect{}, badRequest("rect wants x1,y1,x2,y2, got %q", s)
	}
	var v [4]float64
	for i, part := range parts {
		f, err := strconv.ParseFloat(part, 64)
		// ±Inf is an unbounded side and stays; NaN compares false with
		// every coordinate and would answer empty under a NaN canon.
		if err != nil || math.IsNaN(f) {
			return geom.Rect{}, badRequest("bad rect coordinate %q", part)
		}
		v[i] = f
	}
	return geom.Rect{
		MinX: math.Min(v[0], v[2]),
		MinY: math.Min(v[1], v[3]),
		MaxX: math.Max(v[0], v[2]),
		MaxY: math.Max(v[1], v[3]),
	}, nil
}

// parsePoint accepts finite coordinates only: no partition holds a
// non-finite point, so kNN would search them all, and JSON cannot
// encode an infinite distance.
func parsePoint(s string) (geom.Point, error) {
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		return geom.Point{}, badRequest("point wants x,y, got %q", s)
	}
	x, err1 := strconv.ParseFloat(parts[0], 64)
	y, err2 := strconv.ParseFloat(parts[1], 64)
	if err1 != nil || err2 != nil || !finite(x) || !finite(y) {
		return geom.Point{}, badRequest("bad point %q", s)
	}
	return geom.Point{X: x, Y: y}, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// --- endpoints ---

// plannerFor resolves a request's planner mode: the ?engine= override
// when present (validated), else the configured mode. The override never
// enters the cache key — every engine produces byte-identical bodies, so
// a forced-engine request may be served from a body another engine built.
func (s *Server) plannerFor(r *http.Request) (string, error) {
	v := r.URL.Query().Get("engine")
	if v == "" {
		return s.cfg.Planner, nil
	}
	if !ValidPlanner(v) {
		return "", badRequest("engine wants auto, local, mapreduce or sharded, got %q", v)
	}
	return v, nil
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) error {
	file := r.URL.Query().Get("file")
	if file == "" {
		return badRequest("missing file parameter")
	}
	rect, err := parseRect(r.URL.Query().Get("rect"))
	if err != nil {
		return err
	}
	mode, err := s.plannerFor(r)
	if err != nil {
		return err
	}
	// parseRect normalized the corners, so every ordering of the same
	// rectangle spells one cache key.
	canon := geomio.EncodeRect(rect)
	// The request binds to one generation here: cache key, plan, tier keys
	// and wire epoch all come from this handle.
	f, err := s.sys.FS().Open(file)
	if err != nil {
		return err
	}
	// The engine never enters the key: all engines produce byte-identical
	// bodies, so a forced-engine request may safely hit a body another
	// engine cached.
	key := fmt.Sprintf("range|%s@%d|%s", file, f.Epoch(), canon)
	return s.respond(w, r, key, "application/json", func(ctx context.Context) ([]byte, *execMeta, error) {
		// A heap file has no partitions to scatter: planRange returns nil
		// and the query falls through to MapReduce.
		if sq := s.planRange(mode, f, rect); sq != nil {
			return sq.execRange(ctx, canon, rect)
		}
		out := s.tempOut(file)
		defer s.sys.FS().Delete(out)
		plan := ops.NewPlan(s.sys, ops.NewIndexed(f))
		pts, rep, err := ops.RangeQueryPointsCtx(ctx, s.sys, plan, rect, out)
		if err != nil {
			return nil, nil, err
		}
		s.reg.Inc("serve.planner.mapreduce", 1)
		slices.SortFunc(pts, geom.Point.Compare)
		body, err := encodeRangeBody(file, canon, pts)
		return body, &execMeta{engine: PlannerMapReduce, stats: &plan.Stats, rep: rep}, err
	})
}

type neighborJSON struct {
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Dist float64 `json:"dist"`
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) error {
	file := r.URL.Query().Get("file")
	if file == "" {
		return badRequest("missing file parameter")
	}
	q, err := parsePoint(r.URL.Query().Get("point"))
	if err != nil {
		return err
	}
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k < 1 {
		return badRequest("k wants a positive integer, got %q", r.URL.Query().Get("k"))
	}
	mode, err := s.plannerFor(r)
	if err != nil {
		return err
	}
	canonPt := geomio.EncodePoint(q)
	f, err := s.sys.FS().Open(file) // one generation per request, as in handleRange
	if err != nil {
		return err
	}
	key := fmt.Sprintf("knn|%s@%d|%s|%d", file, f.Epoch(), canonPt, k)
	return s.respond(w, r, key, "application/json", func(ctx context.Context) ([]byte, *execMeta, error) {
		var (
			pts  []geom.Point
			meta *execMeta
		)
		if sq := s.planQuery(mode, f); sq != nil {
			var err error
			if pts, meta, err = sq.execKNN(ctx, q, k); err != nil {
				return nil, nil, err
			}
		} else {
			prefix := s.tempOut(file)
			defer func() {
				s.sys.FS().Delete(prefix + ".r1")
				s.sys.FS().Delete(prefix + ".r2")
			}()
			plan := ops.NewPlan(s.sys, ops.NewIndexed(f))
			mpts, rep, err := ops.KNNCtx(ctx, s.sys, plan, q, k, prefix)
			if err != nil {
				return nil, nil, err
			}
			s.reg.Inc("serve.planner.mapreduce", 1)
			pts, meta = mpts, &execMeta{engine: PlannerMapReduce, stats: &plan.Stats, rep: rep}
		}
		nbs := make([]neighborJSON, len(pts))
		for i, p := range pts {
			nbs[i] = neighborJSON{X: p.X, Y: p.Y, Dist: math.Hypot(p.X-q.X, p.Y-q.Y)}
		}
		body, err := encodeKNNBody(file, canonPt, k, nbs)
		return body, meta, err
	})
}

type joinPairJSON struct {
	Left  string `json:"left"`
	Right string `json:"right"`
}

type joinResponse struct {
	Left  string         `json:"left"`
	Right string         `json:"right"`
	Count int            `json:"count"`
	Pairs []joinPairJSON `json:"pairs"`
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) error {
	left := r.URL.Query().Get("left")
	right := r.URL.Query().Get("right")
	if left == "" || right == "" {
		return badRequest("missing left/right parameter")
	}
	// One generation of each input per request, as in handleRange; both
	// epochs key the entry, so mutating either side invalidates.
	lf, err := s.sys.FS().Open(left)
	if err != nil {
		return err
	}
	rf, err := s.sys.FS().Open(right)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("join|%s@%d|%s@%d", left, lf.Epoch(), right, rf.Epoch())
	return s.respond(w, r, key, "application/json", func(ctx context.Context) ([]byte, *execMeta, error) {
		out := s.tempOut(left)
		defer s.sys.FS().Delete(out)
		plan := ops.NewPlan(s.sys, ops.NewIndexed(lf))
		pairs, rep, err := ops.SpatialJoinIndexedCtx(ctx, s.sys, plan, ops.NewIndexed(rf), out)
		if err != nil {
			return nil, nil, err
		}
		slices.SortFunc(pairs, func(a, b ops.JoinPair) int {
			if c := strings.Compare(a.Left, b.Left); c != 0 {
				return c
			}
			return strings.Compare(a.Right, b.Right)
		})
		resp := joinResponse{Left: left, Right: right, Count: len(pairs), Pairs: make([]joinPairJSON, len(pairs))}
		for i, p := range pairs {
			resp.Pairs[i] = joinPairJSON{Left: p.Left, Right: p.Right}
		}
		body, err := marshalBody(resp)
		return body, &execMeta{engine: PlannerMapReduce, stats: &plan.Stats, rep: rep}, err
	})
}

func (s *Server) handlePlot(w http.ResponseWriter, r *http.Request) error {
	file := r.URL.Query().Get("file")
	if file == "" {
		return badRequest("missing file parameter")
	}
	width, height := 256, 256
	if v := r.URL.Query().Get("width"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return badRequest("bad width %q", v)
		}
		width = n
	}
	if v := r.URL.Query().Get("height"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return badRequest("bad height %q", v)
		}
		height = n
	}
	key := fmt.Sprintf("plot|%s@%d|%dx%d", file, s.sys.FS().FileEpoch(file), width, height)
	return s.respond(w, r, key, "image/png", func(ctx context.Context) ([]byte, *execMeta, error) {
		f, err := s.sys.FS().Open(file)
		if err != nil {
			return nil, nil, err
		}
		out := s.tempOut(file)
		defer s.sys.FS().Delete(out)
		plan := ops.NewPlan(s.sys, ops.NewIndexed(f))
		img, rep, err := ops.PlotCtx(ctx, s.sys, plan, ops.PlotConfig{Width: width, Height: height, Out: out})
		if err != nil {
			return nil, nil, err
		}
		body, err := ops.EncodePlotPNG(img)
		return body, &execMeta{engine: PlannerMapReduce, stats: &plan.Stats, rep: rep}, err
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// refreshGauges recomputes the point-in-time gauges (admission, slots, Go
// runtime, exact latency quantiles) immediately before a metrics snapshot
// is taken.
func (s *Server) refreshGauges() {
	inFlight, queued := s.sys.Cluster().AdmissionStats()
	pool := s.sys.Cluster().Slots()
	s.reg.SetGauge("serve.jobs.inflight", float64(inFlight))
	s.reg.SetGauge("serve.jobs.queued", float64(queued))
	var pinned int
	var pinnedBytes int64
	if s.mt != nil {
		pinned, pinnedBytes = s.mt.Stats()
	}
	s.reg.SetGauge("serve.memtier.pinned_partitions", float64(pinned))
	s.reg.SetGauge("serve.memtier.bytes", float64(pinnedBytes))
	s.reg.SetGauge("cluster.slots.cap", float64(pool.Cap()))
	s.reg.SetGauge("cluster.slots.inuse", float64(pool.InUse()))
	s.reg.SetGauge("cluster.slots.highwater", float64(pool.HighWater()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.SetGauge("go.goroutines", float64(runtime.NumGoroutine()))
	s.reg.SetGauge("go.heap.alloc_bytes", float64(ms.HeapAlloc))
	s.reg.SetGauge("go.gc.cycles", float64(ms.NumGC))
	s.reg.SetGauge("go.gc.pause_total_us", float64(ms.PauseTotalNs)/1e3)

	// Exact per-endpoint quantiles over the bounded latency window; the
	// quantile is a label, never part of the family name.
	s.winMu.Lock()
	wins := make(map[string]*obs.SampleWindow, len(s.wins))
	for name, win := range s.wins {
		wins[name] = win
	}
	s.winMu.Unlock()
	for name, win := range wins {
		qs := win.Quantiles(0.5, 0.95, 0.99)
		for i, q := range []string{"0.5", "0.95", "0.99"} {
			s.reg.SetGauge(obs.Name("serve.latency_quantile_us", "endpoint", name, "quantile", q), qs[i])
		}
	}
}

// hotSnapshot renders the hot-partition telemetry as a transient metrics
// snapshot, so it rides the same Prometheus exposition path as the
// registries.
func (s *Server) hotSnapshot() *obs.Snapshot {
	snap := &obs.Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]obs.HistogramSnapshot{},
	}
	for _, fh := range s.sys.Hotness().Report() {
		snap.Gauges[obs.Name("ops.file.skew", "file", fh.File)] = fh.Skew
		for _, ph := range fh.Partitions {
			l := []string{"file", fh.File, "partition", ph.Partition}
			snap.Counters[obs.Name("ops.partition.scans", l...)] = ph.Scans
			snap.Counters[obs.Name("ops.partition.prunes", l...)] = ph.Prunes
			snap.Counters[obs.Name("ops.partition.records", l...)] = ph.Records
			snap.Counters[obs.Name("ops.partition.matches", l...)] = ph.Matches
			snap.Gauges[obs.Name("ops.partition.selectivity", l...)] = ph.Selectivity()
		}
	}
	return snap
}

// handleMetrics serves the Prometheus text exposition of the serving
// registry, the system registry and the hot-partition telemetry. The
// former JSON dump lives on /metrics.json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	s.refreshGauges()
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, s.reg.Snapshot(), s.sys.Metrics().Snapshot(), s.hotSnapshot()); err != nil {
		return err
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
	return nil
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) error {
	s.refreshGauges()
	body, err := json.Marshal(struct {
		Serve  *obs.Snapshot `json:"serve"`
		System *obs.Snapshot `json:"system"`
	}{Serve: s.reg.Snapshot(), System: s.sys.Metrics().Snapshot()})
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
	return nil
}

// handleTrace returns the span tree of a recent request by trace ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	tr := s.ring.Get(id)
	if tr == nil {
		return &notFoundError{msg: fmt.Sprintf("trace %q not found (evicted or never issued)", id)}
	}
	body, err := json.Marshal(tr.Snapshot())
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
	return nil
}

// handlePartitions returns the hot-partition skew report: per file, the
// partitions hottest-first with scan/prune counts and scan selectivity.
func (s *Server) handlePartitions(w http.ResponseWriter, r *http.Request) error {
	body, err := json.Marshal(struct {
		Files []sindex.FileHeat `json:"files"`
	}{Files: s.sys.Hotness().Report()})
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
	return nil
}

func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
