package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"net/http"
	"runtime"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/worker"
)

// Load shape shared by every workload: a closed loop from this one process.
const (
	httpClients = 2 // serving workloads; the job workloads have one driver
	sysWorkers  = 4
	blockSize   = 256 << 10
	numWorkers  = 2 // worker runtimes of serve-sharded and jobs-remote
	replication = 2
)

func newSystem() *core.System {
	return core.New(core.Config{Workers: sysWorkers, BlockSize: blockSize, Seed: 1})
}

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	scale    float64
	outDir   string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is everything one workload run produced; it is written to
// <out>/<workload>.result.json and folded into a set by -all.
type result struct {
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`
	resultLine
	// Samples is the number of latency samples behind the percentiles.
	Samples int `json:"samples"`
	// Digest hashes the answers the oracles accepted, in schedule order of
	// the warm-up pass; jobs-remote and jobs-inproc must agree on it.
	Digest string `json:"digest"`
	// Problems lists failed path assertions and first errors; any entry
	// makes the run incorrect.
	Problems []string `json:"problems,omitempty"`
	// Slices is the timed window slice by slice, as measured, with the
	// host's slowdown beside each.
	Slices []sliceStat `json:"slices,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// opLog is what one closed-loop caller saw.
type opLog struct {
	latMS     []float64 // correct operations only
	attempted int64
	failed    int64
	firstErr  error
	bytes     int64 // response bytes of correct operations
}

func (l *opLog) ok(d time.Duration) {
	l.attempted++
	l.latMS = append(l.latMS, float64(d.Nanoseconds())/1e6)
}

func (l *opLog) fail(err error) {
	l.attempted++
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

func (l *opLog) merge(o *opLog) {
	l.latMS = append(l.latMS, o.latMS...)
	l.attempted += o.attempted
	l.failed += o.failed
	l.bytes += o.bytes
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

// sliceStat is one slice of a measured window. Slowdown is how much
// slower than nominal the reference ran next to the slice; dividing a time
// of the slice by it gives the time in reference terms.
type sliceStat struct {
	Ops      int64   `json:"ops"` // correct operations
	WallMS   float64 `json:"wall_ms"`
	CPUMS    float64 `json:"cpu_ms"`
	Slowdown float64 `json:"slowdown"`
}

func (s sliceStat) opsPerSec() float64 { return ratio(float64(s.Ops), s.WallMS/s.Slowdown/1e3) }
func (s sliceStat) cpuMSPerOp() float64 {
	return ratio(s.CPUMS/s.Slowdown, float64(s.Ops))
}

// windowStats is one measured window: the merged log, its slices, and the
// allocation over it.
type windowStats struct {
	opLog              // latMS as the callers saw them
	refLatMS []float64 // the same latencies in reference time
	slices   []sliceStat
	alloc    uint64
}

// measure runs slices of a workload — body(0), body(1), … each a fixed
// piece of the workload's schedule — until the window is spent, with one
// run of the reference before the first, between every two and after the
// last. A slice's slowdown is the mean of the four reference runs nearest
// to it, two on each side. The mean and not the median: when another tenant
// takes the core in bursts shorter than a slice, the slice pays the
// time-average of them, and so must its reference; the median of four 5 ms
// runs would miss them and leave the slice looking slow.
func measure(window time.Duration, ref *reference, body func(slice int) *opLog) windowStats {
	runtime.GC() // start every window from a collected heap
	var (
		ws   windowStats
		logs []*opLog
		slow []float64 // slow[i] ran just before slice i
	)
	alloc0, t0 := totalAlloc(), time.Now()
	for i := 0; i == 0 || time.Since(t0) < window; i++ {
		slow = append(slow, ref.run())
		cpu0, start := cpuTime(), time.Now()
		log := body(i)
		wall, cpu := time.Since(start), cpuTime()-cpu0
		logs = append(logs, log)
		ws.slices = append(ws.slices, sliceStat{
			Ops:    log.attempted - log.failed,
			WallMS: float64(wall.Nanoseconds()) / 1e6,
			CPUMS:  float64(cpu.Nanoseconds()) / 1e6,
		})
	}
	slow = append(slow, ref.run())
	ws.alloc = totalAlloc() - alloc0
	for i, log := range logs {
		f := mean(slow[max(0, i-1):min(len(slow), i+3)])
		ws.slices[i].Slowdown = f
		for _, l := range log.latMS {
			ws.refLatMS = append(ws.refLatMS, l/f)
		}
		ws.opLog.merge(log)
	}
	return ws
}

func (ws *windowStats) correctOps() int64 { return ws.attempted - ws.failed }

// opsPerSec is the median slice's throughput in reference time. Every
// slice runs the same piece of the schedule, so the median slice is a
// typical one, and a stall that hits a few slices does not move it.
func (ws *windowStats) opsPerSec() float64 {
	v := make([]float64, len(ws.slices))
	for i, s := range ws.slices {
		v[i] = s.opsPerSec()
	}
	return median(v)
}

func (ws *windowStats) cpuMSPerOp() float64 {
	var v []float64
	for _, s := range ws.slices {
		if s.Ops > 0 {
			v = append(v, s.cpuMSPerOp())
		}
	}
	return median(v)
}

// endToEndMetrics derives the user-visible metrics from the timed window.
// Everything timed is in reference time (see reference.go).
func (r *result) endToEndMetrics(ws *windowStats, setups []float64) {
	r.Attempted, r.Failed = ws.attempted, ws.failed
	r.Samples = len(ws.latMS)
	r.Slices = ws.slices
	if ws.firstErr != nil {
		r.problem("first failed op: %v", ws.firstErr)
	}
	ops := float64(ws.correctOps())
	if ops == 0 {
		r.problem("no operation completed in the window")
		ops = 1
	}
	lat := sortedCopy(ws.refLatMS)
	if len(lat) == 0 {
		lat = []float64{0}
	}
	// A traced run's short window only feeds the overhead figure.
	if tail := tailBeyond(len(lat), 0.95); tail < minTail && !r.Traced {
		r.problem("only %d samples beyond p95 (%d samples); the workload must shrink its operation", tail, len(lat))
	}
	r.set("setup_s", median(setups))
	r.set("ops_per_s", ws.opsPerSec())
	r.set("op_p50_ms", percentile(lat, 0.50))
	r.set("op_p95_ms", percentile(lat, 0.95))
	r.set("cpu_ms_per_op", ws.cpuMSPerOp())
	r.set("alloc_kb_per_op", float64(ws.alloc)/1024/ops)
	r.set("rss_peak_mb", rssPeakMiB())
}

// foldTraced folds a traced pass into the result: its operations count
// as attempted, and its throughput against the untraced window measured
// just before it in the same process is the tracing overhead.
func (r *result) foldTraced(timed, traced *windowStats) {
	r.Attempted += traced.attempted
	r.Failed += traced.failed
	if traced.firstErr != nil {
		r.problem("traced pass: %v", traced.firstErr)
	}
	r.set("benchmark.trace_overhead_share", 1-ratio(traced.opsPerSec(), timed.opsPerSec()))
}

// set stores a metric under the unit the spec gives it.
func (r *result) set(name string, v float64) {
	spec, ok := specOf(endToEnd, name)
	if !ok {
		spec, ok = specOf(perLayer, name)
	}
	if !ok {
		panic("benchmark: metric not in spec: " + name)
	}
	if r.Metrics == nil {
		r.Metrics = make(map[string]metricValue)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: spec.Unit}
}

// fillPerLayer gives every per-layer metric the workload did not exercise
// an explicit 0, so each traced run reports the whole ledger.
func (r *result) fillPerLayer() {
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.Name]; !ok {
			r.set(m.Name, 0)
		}
	}
}

// digest accumulates accepted answers.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(b []byte) {
	var n [8]byte
	for i, v := 0, uint64(len(b)); i < 8; i, v = i+1, v>>8 {
		n[i] = byte(v)
	}
	d.h.Write(n[:])
	d.h.Write(b)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// httpCaller is one closed-loop HTTP client with its own connection. The
// body buffer is reused across requests: io.ReadAll's doubling growth on
// the larger bodies would otherwise be a visible share of the process's
// allocation, and the client shares the process with the server.
type httpCaller struct {
	c   *http.Client
	buf []byte
}

func newHTTPCaller() *httpCaller {
	return &httpCaller{c: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (h *httpCaller) close() { h.c.CloseIdleConnections() }

// get returns the status, the body (aliasing the caller's buffer until the
// next get) and the response headers.
func (h *httpCaller) get(url string) (int, []byte, http.Header, error) {
	resp, err := h.c.Get(url)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	if n := resp.ContentLength; n >= 0 {
		if int64(cap(h.buf)) < n {
			h.buf = make([]byte, n+n/4)
		}
		body := h.buf[:n]
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return resp.StatusCode, nil, resp.Header, err
		}
		return resp.StatusCode, body, resp.Header, nil
	}
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header, err
}

// workerCluster is a master runtime plus its workers, all in this process
// but each worker with its own listener and spill directory, talking
// net/rpc over loopback.
type workerCluster struct {
	m       *mapreduce.Master
	workers []*worker.Worker
}

// startWorkers starts the master at replication 2 and n single-slot
// workers, and returns once every worker is under lease.
func startWorkers(sys *core.System, n int, serveTasks bool) (*workerCluster, error) {
	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{Metrics: sys.Metrics(), Replication: replication})
	if err != nil {
		return nil, err
	}
	wc := &workerCluster{m: m}
	for i := 0; i < n; i++ {
		// An empty Dir makes the worker create its spill directory with
		// os.MkdirTemp and remove it on Stop.
		w, err := worker.Start(worker.Config{Master: m.Addr(), Tasks: 1, FakePID: 9500 + i, ServeTasks: serveTasks})
		if err != nil {
			wc.stop()
			return nil, err
		}
		wc.workers = append(wc.workers, w)
	}
	if err := waitFor(10*time.Second, func() bool { return m.LiveWorkers() == n }); err != nil {
		wc.stop()
		return nil, fmt.Errorf("workers never registered: %w", err)
	}
	return wc, nil
}

func (wc *workerCluster) stop() {
	if wc == nil {
		return
	}
	for _, w := range wc.workers {
		w.Stop()
	}
	for _, w := range wc.workers {
		w.Wait()
	}
	wc.m.Stop()
}

// waitFor polls cond until it holds; it is a wait on a condition with a
// give-up time, never a fixed sleep, so set-up time repeats.
func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// counterDelta is after-minus-before for one counter of two snapshots.
func counterDelta(before, after *obs.Snapshot, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// checkClients refuses a serving workload on a host with fewer cores than
// HTTP clients: the clients would queue behind each other, not the server.
func checkClients() error {
	if n := runtime.NumCPU(); httpClients > n {
		return fmt.Errorf("%d HTTP clients on %d cores", httpClients, n)
	}
	return nil
}
