package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/serve"
	"spatialhadoop/internal/sindex"
)

// serveInst is one serving deployment under test: a system with the
// corpus loaded, a serve.Server on a loopback listener, and for the
// sharded workload a master and its serve-capable workers.
type serveInst struct {
	sys     *core.System
	srv     *serve.Server
	base    string
	wc      *workerCluster
	served  chan error
	callers []*httpCaller
}

type serveOptions struct {
	planner   string // serve.PlannerSharded also starts the worker cluster
	tierBytes int64  // 0 keeps the server's 64 MiB default
}

// newServeInst loads pts as an STR+ file and brings the deployment up to
// the point where it can answer: workers under lease, every partition's
// replicas placed, server listening.
func newServeInst(file string, pts []geom.Point, o serveOptions) (*serveInst, error) {
	sys := newSystem()
	f, err := sys.LoadPoints(file, pts, sindex.STRPlus)
	if err != nil {
		return nil, err
	}
	in := &serveInst{sys: sys, served: make(chan error, 1)}
	if o.planner == serve.PlannerSharded {
		if in.wc, err = startWorkers(sys, numWorkers, true); err != nil {
			return nil, err
		}
		in.wc.m.EnsureServeReplicas(f.Splits()) // returns once every replica is pushed
	}
	in.srv = serve.New(sys, serve.Config{
		CacheSize:    -1, // result cache off: every request executes
		MaxInFlight:  4,
		QueueDepth:   4096,
		JobDeadline:  30 * time.Second,
		MemTierBytes: o.tierBytes,
		Planner:      o.planner,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.wc.stop()
		return nil, err
	}
	in.base = "http://" + ln.Addr().String()
	go func() { in.served <- in.srv.Serve(ln) }()
	for i := 0; i < httpClients; i++ {
		in.callers = append(in.callers, newHTTPCaller())
	}
	return in, nil
}

// close stops the server, the workers and the master, and waits for each.
func (in *serveInst) close() error {
	for _, c := range in.callers {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	in.wc.stop()
	return err
}

// oracleBodies answers every query of the pool serially through the
// server's handler with the local engine forced, without a socket. Every
// engine must reproduce these bodies byte for byte.
func oracleBodies(h http.Handler, pool []query) ([][]byte, error) {
	out := make([][]byte, len(pool))
	for i, q := range pool {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.Path+"&engine=local", nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("oracle %s: status %d: %.200s", q.Path, rec.Code, rec.Body.Bytes())
		}
		out[i] = rec.Body.Bytes()
	}
	return out, nil
}

// checkOracle holds the oracle bodies themselves to a brute-force scan of
// the raw points: a range body's count, a kNN body's distances.
func checkOracle(pts []geom.Point, pool []query, bodies [][]byte) error {
	for i, q := range pool {
		if q.KNN {
			var resp struct {
				Neighbors []struct{ Dist float64 } `json:"neighbors"`
			}
			if err := json.Unmarshal(bodies[i], &resp); err != nil {
				return fmt.Errorf("oracle %s: %w", q.Path, err)
			}
			want := bruteKNNDists(pts, q.Pt, q.K)
			if len(resp.Neighbors) != len(want) {
				return fmt.Errorf("oracle %s: %d neighbours, brute force finds %d", q.Path, len(resp.Neighbors), len(want))
			}
			for j, nb := range resp.Neighbors {
				if math.Abs(nb.Dist-want[j]) > 1e-9*(1+want[j]) {
					return fmt.Errorf("oracle %s: neighbour %d at %g, brute force says %g", q.Path, j, nb.Dist, want[j])
				}
			}
			continue
		}
		var resp struct{ Count int }
		if err := json.Unmarshal(bodies[i], &resp); err != nil {
			return fmt.Errorf("oracle %s: %w", q.Path, err)
		}
		if want := bruteRangeCount(pts, q.Rect); resp.Count != want {
			return fmt.Errorf("oracle %s: count %d, brute force counts %d", q.Path, resp.Count, want)
		}
	}
	return nil
}

func bruteRangeCount(pts []geom.Point, r geom.Rect) int {
	n := 0
	for _, p := range pts {
		if r.ContainsPoint(p) {
			n++
		}
	}
	return n
}

// bruteKNNDists returns the k smallest distances from q, ascending.
func bruteKNNDists(pts []geom.Point, q geom.Point, k int) []float64 {
	best := make([]float64, 0, k+1) // squared, ascending
	for _, p := range pts {
		d2 := p.Dist2(q)
		if len(best) == k && d2 >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, d2)
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d2
		if len(best) > k {
			best = best[:k]
		}
	}
	for i, d2 := range best {
		best[i] = math.Sqrt(d2)
	}
	return best
}

// engineTally counts responses by the X-Engine header.
type engineTally struct{ local, mapreduce, sharded, other int64 }

func (t *engineTally) count(engine string) {
	switch engine {
	case serve.PlannerLocal:
		t.local++
	case serve.PlannerMapReduce:
		t.mapreduce++
	case serve.PlannerSharded:
		t.sharded++
	default:
		t.other++
	}
}

func (t *engineTally) add(o engineTally) {
	t.local += o.local
	t.mapreduce += o.mapreduce
	t.sharded += o.sharded
	t.other += o.other
}

func (t engineTally) total() int64 { return t.local + t.mapreduce + t.sharded + t.other }

// explainReport is the part of the server's explain object the ledger
// reads.
type explainReport struct {
	PartitionsScanned  int64 `json:"partitions_scanned"`
	SFilterHits        int64 `json:"sfilter_hits"`
	SFilterSkips       int64 `json:"sfilter_skips"`
	ShardFanout        int64 `json:"shard_fanout"`
	ShardRemote        int64 `json:"shard_remote"`
	ShardLocal         int64 `json:"shard_local"`
	ShardFallbackPeer  int64 `json:"shard_fallback_peer"`
	ShardFallbackLocal int64 `json:"shard_fallback_local"`
}

// explainSums accumulates the ?explain=1 reports of a traced pass.
type explainSums struct {
	n   int64
	sum explainReport
}

func (e *explainSums) add(n int64, r explainReport) {
	e.n += n
	e.sum.PartitionsScanned += r.PartitionsScanned
	e.sum.SFilterHits += r.SFilterHits
	e.sum.SFilterSkips += r.SFilterSkips
	e.sum.ShardFanout += r.ShardFanout
	e.sum.ShardRemote += r.ShardRemote
	e.sum.ShardLocal += r.ShardLocal
	e.sum.ShardFallbackPeer += r.ShardFallbackPeer
	e.sum.ShardFallbackLocal += r.ShardFallbackLocal
}

var explainKey = []byte(`,"explain":`)

// splitExplain separates an explained body into the plain body's prefix
// (everything before the closing brace) and the explain object. The server
// splices the report in as the last member, so the plain body is
// prefix + "}\n".
func splitExplain(body []byte) (prefix, report []byte, ok bool) {
	i := bytes.LastIndex(body, explainKey)
	if i < 0 || !bytes.HasSuffix(body, []byte("}\n")) {
		return nil, nil, false
	}
	return body[:i], body[i+len(explainKey) : len(body)-2], true
}

// serveClient is one closed-loop caller's state for one pass.
type serveClient struct {
	log     opLog
	engines engineTally
	explain explainSums
}

// servePass drives the pool against a server from httpClients closed-loop
// callers until the deadline, checking every body against the oracle.
// With a tracer it also asks each request to explain itself and fetches
// the request's span tree; the timed windows pass nil and make no extra
// calls.
type servePass struct {
	in     *serveInst
	pool   []query
	oracle [][]byte
	seed   int64
	tr     *tracer
	next   []int // how far along its order each caller is, across slices
}

// one sends query qi from caller c and accounts it.
func (p *servePass) one(c *httpCaller, qi int, st *serveClient) {
	url := p.in.base + p.pool[qi].Path
	if p.tr != nil {
		url += "&explain=1"
	}
	span := p.tr.reserve()
	start := time.Now()
	code, body, hdr, err := c.get(url)
	d := time.Since(start)
	want := p.oracle[qi]
	switch {
	case err != nil:
		st.log.fail(fmt.Errorf("%s: %w", url, err))
		return
	case code != http.StatusOK:
		st.log.fail(fmt.Errorf("%s: status %d: %.200s", url, code, body))
		return
	}
	if p.tr == nil {
		if !bytes.Equal(body, want) {
			st.log.fail(fmt.Errorf("%s: body diverged from the serial oracle", url))
			return
		}
	} else {
		prefix, report, ok := splitExplain(body)
		if !ok || !bytes.Equal(prefix, want[:len(want)-2]) {
			st.log.fail(fmt.Errorf("%s: explained body diverged from the serial oracle", url))
			return
		}
		var ex explainReport
		if err := json.Unmarshal(report, &ex); err != nil {
			st.log.fail(fmt.Errorf("%s: explain: %w", url, err))
			return
		}
		st.explain.add(1, ex)
	}
	st.log.ok(d)
	st.log.bytes += int64(len(want))
	st.engines.count(hdr.Get("X-Engine"))
	if p.tr != nil {
		op := p.tr.newOp()
		p.tr.record(span, 0, op, "http.get", start, d)
		p.importServerTrace(c, hdr.Get("X-Trace-Id"), span, op, start, d)
	}
}

// importServerTrace fetches the request's span tree from the server and
// hangs it under the harness's http.get span. The server's clock starts
// when the handler does; the tree is centred inside the client-side span,
// which splits the socket time evenly before and after.
func (p *servePass) importServerTrace(c *httpCaller, id string, parent, op int64, start time.Time, d time.Duration) {
	code, body, _, err := c.get(p.in.base + "/debug/trace/" + id)
	if err != nil || code != http.StatusOK {
		return // evicted from the server's ring; the op itself was checked
	}
	var snap obs.ReqTraceSnapshot
	if json.Unmarshal(body, &snap) != nil {
		return
	}
	lead := (d - time.Duration(snap.DurUS)*time.Microsecond) / 2
	if lead < 0 {
		lead = 0
	}
	ids := map[int64]int64{0: parent}
	for _, s := range snap.Spans {
		ids[s.ID] = p.tr.reserve()
	}
	for _, s := range snap.Spans {
		p.tr.record(ids[s.ID], ids[s.Parent], op, "serve/"+s.Name,
			start.Add(lead+time.Duration(s.StartUS)*time.Microsecond), time.Duration(s.DurUS)*time.Microsecond)
	}
}

// serveSlice is how long one slice of a serving window lasts: a few hundred
// requests, a few GC cycles.
const serveSlice = 300 * time.Millisecond

// run is the closed loop: each caller walks its own seeded permutation of
// the pool, carrying on where the previous slice left it, and sends its
// next request only after the previous reply.
func (p *servePass) run(deadline time.Time) *serveClient {
	if p.next == nil {
		p.next = make([]int, len(p.in.callers))
	}
	states := make([]serveClient, len(p.in.callers))
	var wg sync.WaitGroup
	for ci, c := range p.in.callers {
		wg.Add(1)
		go func(ci int, c *httpCaller) {
			defer wg.Done()
			order := clientOrder(p.seed, ci, len(p.pool))
			for ; time.Now().Before(deadline); p.next[ci]++ {
				p.one(c, order[p.next[ci]%len(order)], &states[ci])
			}
		}(ci, c)
	}
	wg.Wait()
	return mergeClients(states)
}

// warm replays the pool once, split between the callers, so connections
// are open, partitions pinned and lazy set-up done before timing starts.
// suffix forces an engine where the warm-up must pin on the master.
func (p *servePass) warm(suffix string) error {
	errs := make([]error, len(p.in.callers))
	var wg sync.WaitGroup
	for ci, c := range p.in.callers {
		wg.Add(1)
		go func(ci int, c *httpCaller) {
			defer wg.Done()
			for qi := ci; qi < len(p.pool); qi += len(p.in.callers) {
				code, body, _, err := c.get(p.in.base + p.pool[qi].Path + suffix)
				if err != nil || code != http.StatusOK {
					errs[ci] = fmt.Errorf("warm-up %s: status %d: %v %.200s", p.pool[qi].Path, code, err, body)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func mergeClients(states []serveClient) *serveClient {
	out := &serveClient{}
	for i := range states {
		out.log.merge(&states[i].log)
		out.engines.add(states[i].engines)
		out.explain.add(states[i].explain.n, states[i].explain.sum)
	}
	return out
}

// metricsJSON reads the server's /metrics.json.
func (in *serveInst) metricsJSON() (serveSnap, sysSnap *obs.Snapshot, err error) {
	code, body, _, err := in.callers[0].get(in.base + "/metrics.json")
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, fmt.Errorf("/metrics.json: status %d", code)
	}
	var doc struct {
		Serve  *obs.Snapshot `json:"serve"`
		System *obs.Snapshot `json:"system"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, nil, err
	}
	return doc.Serve, doc.System, nil
}

// runServe is serve-hot and serve-sharded: the same corpus, pool and seed,
// answered from the master's pinned partitions or scattered to workers.
func runServe(cfg runConfig, sharded bool) (*result, error) {
	if err := checkClients(); err != nil {
		return nil, err
	}
	sz := sizesFor(cfg.scale)
	pts := genPoints(cfg.seed, sz.points)
	pool := genPool(cfg.seed, "pts", pts, sz.pool)
	opts := serveOptions{planner: serve.PlannerAuto, tierBytes: 1 << 30}
	warmSuffix := "&engine=local" // pin every partition the pool touches
	if sharded {
		opts = serveOptions{planner: serve.PlannerSharded}
		warmSuffix = "" // the scatter itself pins the workers' tiers
	}

	ref := newReference()
	res := &result{Workload: cfg.workload, Traced: cfg.traced, Env: cfg.env()}
	pass := &servePass{pool: pool, seed: cfg.seed}
	var setups []float64
	for i := 0; i < cfg.setupReps(); i++ {
		var in *serveInst
		secs, err := ref.timeSetup(func() (err error) {
			if in, err = newServeInst("pts", pts, opts); err != nil {
				return err
			}
			pass.in = in
			if err = pass.warm(warmSuffix); err != nil {
				in.close()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if i == 0 {
			// The oracle is taken once, outside set-up time, and checked
			// against brute force before anything is held to it.
			if pass.oracle, err = oracleBodies(in.srv.Handler(), pool); err == nil {
				err = checkOracle(pts, pool, pass.oracle)
			}
			if err != nil {
				in.close()
				return nil, err
			}
			d := newDigest()
			for _, b := range pass.oracle {
				d.add(b)
			}
			res.Digest = d.sum()
		}
		if i < cfg.setupReps()-1 {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
	}
	in := pass.in
	defer in.close()

	before := in.srv.Metrics().Snapshot()
	var engines engineTally
	timed := measure(cfg.timedWindow(), ref, func(int) *opLog {
		st := pass.run(time.Now().Add(serveSlice))
		engines.add(st.engines)
		return &st.log
	})
	after := in.srv.Metrics().Snapshot()
	res.endToEndMetrics(&timed, setups)
	assertServePath(res, sharded, engines, before, after)
	if !cfg.traced {
		return res, nil
	}
	err := tracedServe(cfg, res, pass, ref, &timed, microEnv{
		sys: in.sys, file: "pts", pts: pts, pool: pool, userBytes: rawPointBytes(pts),
		srv: in.srv, base: in.base, wc: in.wc, serveWorkers: sharded,
	})
	return res, err
}

// assertServePath fails the run when the requests did not take the path
// the workload exists to measure: a silent fallback must not post a fast
// number.
func assertServePath(res *result, sharded bool, engines engineTally, before, after *obs.Snapshot) {
	total := float64(engines.total())
	if sharded {
		if engines.sharded != engines.total() {
			res.problem("X-Engine: %d of %d responses were not built by the sharded engine", engines.total()-engines.sharded, engines.total())
		}
		remote := counterDelta(before, after, "serve.shard.exec.remote")
		local := counterDelta(before, after, "serve.shard.exec.local")
		if share := ratio(remote, remote+local); share < 0.9 {
			res.problem("serve.shard_remote_share %.3f < 0.9: fragments fell back to the master", share)
		}
		return
	}
	if share := ratio(float64(engines.local), total); share < 0.95 {
		res.problem("X-Engine: local share %.3f < 0.95 (mapreduce %d of %d)", share, engines.mapreduce, engines.total())
	}
	if ev := counterDelta(before, after, "serve.memtier.evictions"); ev != 0 {
		res.problem("serve.memtier_evictions %v != 0: the corpus no longer fits the memory tier", ev)
	}
}

// serveTrace is what a serving workload's traced pass collected.
type serveTrace struct {
	tr              *tracer
	timed, traced   *windowStats
	httpLatMS       []float64 // the timed window's HTTP latencies
	st              *serveClient
	sBefore, sAfter *obs.Snapshot // the server's registry, from /metrics.json
	yBefore, yAfter *obs.Snapshot // the system's registry, likewise
}

// tracedServe is the traced pass of serve-hot and serve-sharded: the same
// loop with explain and span fetches on, counters read from /metrics.json
// around it. The timed window that ran just before, untraced, is the base
// of the tracing overhead.
func tracedServe(cfg runConfig, res *result, pass *servePass, ref *reference, timed *windowStats, env microEnv) error {
	in := pass.in
	t := serveTrace{tr: newTracer(), timed: timed, httpLatMS: timed.latMS}
	pass.tr = t.tr
	var err error
	if t.sBefore, t.yBefore, err = in.metricsJSON(); err != nil {
		return err
	}
	var states []serveClient
	traced := measure(cfg.tracedWindow(), ref, func(int) *opLog {
		st := pass.run(time.Now().Add(serveSlice))
		states = append(states, *st)
		return &st.log
	})
	t.st = mergeClients(states)
	pass.tr = nil
	t.traced = &traced
	if t.sAfter, t.yAfter, err = in.metricsJSON(); err != nil {
		return err
	}
	return serveLedger(cfg, res, &t, env)
}

// serveLedger turns a traced serving pass into ledger entries, runs the
// micro-levels and writes the trace.
func serveLedger(cfg runConfig, res *result, t *serveTrace, env microEnv) error {
	res.foldTraced(t.timed, t.traced)
	if lat := sortedCopy(t.httpLatMS); len(lat) > 0 {
		res.set("serve.http_p99_ms", percentile(lat, 0.99))
	}

	self := selfTimes(t.tr.spans)
	res.set("serve.span_cache_probe_us", median(self["serve/cache.probe"]))
	res.set("serve.span_exec_us", median(self["serve/exec"]))
	res.set("serve.span_encode_us", median(self["serve/encode"]))
	res.set("serve.span_other_us", median(self["serve/request"]))

	ex, n := t.st.explain.sum, float64(t.st.explain.n)
	frags := float64(ex.ShardRemote + ex.ShardLocal)
	res.set("serve.body_kb_mean", ratio(float64(t.st.log.bytes)/1024, n))
	res.set("serve.partitions_scanned_per_req", ratio(float64(ex.PartitionsScanned), n))
	res.set("sindex.sfilter_skip_share", ratio(float64(ex.SFilterSkips), float64(ex.SFilterHits+ex.SFilterSkips)))
	res.set("serve.shard_fanout_per_req", ratio(float64(ex.ShardFanout), n))
	res.set("serve.shard_remote_share", ratio(float64(ex.ShardRemote), frags))
	res.set("serve.shard_fallback_share", ratio(float64(ex.ShardFallbackPeer+ex.ShardFallbackLocal), frags))

	engines := []string{serve.PlannerLocal, serve.PlannerMapReduce, serve.PlannerSharded}
	planned := 0.0
	for _, e := range engines {
		planned += counterDelta(t.sBefore, t.sAfter, "serve.planner."+e)
	}
	for _, e := range engines {
		res.set("serve.engine_"+e+"_share", ratio(counterDelta(t.sBefore, t.sAfter, "serve.planner."+e), planned))
	}
	hits := counterDelta(t.sBefore, t.sAfter, "serve.memtier.hits")
	misses := counterDelta(t.sBefore, t.sAfter, "serve.memtier.misses")
	res.set("serve.memtier_hit_share", ratio(hits, hits+misses))
	res.set("serve.memtier_evictions", counterDelta(t.sBefore, t.sAfter, "serve.memtier.evictions"))
	res.set("serve.shard_rpc_errors", counterDelta(t.sBefore, t.sAfter, "serve.shard.rpc.errors"))
	res.set("serve.shard_frag_p50_us", t.sAfter.Histograms[obs.Name("serve.shard.latency_us", "path", "remote")].Quantile(0.5))
	dataPlaneMetrics(res, t.yBefore, t.yAfter)
	res.set("sindex.partition_imbalance", t.yAfter.Gauges[core.GaugePartitionImbalance])

	env.tr = t.tr
	if err := microLevels(res, env); err != nil {
		return err
	}
	res.fillPerLayer()
	return t.tr.writeJSONL(cfg.tracePath())
}
