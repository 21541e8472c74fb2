// Package obs is the observability substrate of the runtime: a metrics
// registry (counters, gauges, log-scale histograms), per-task metric
// buffers that are merged into the registry once per task, and one span
// model: a context-carried span tree that a request and a job share, with
// a job's phase, task and outcome as typed span fields. Traces export as
// JSONL and as Chrome trace_event JSON (loadable in chrome://tracing or
// Perfetto); metrics export as a point-in-time Snapshot that Report
// embeds and the benchmark harness persists next to timings.
//
// Naming scheme: metric and span names are dot-separated lowercase paths,
// "<layer>.<object>.<aspect>", e.g. "map.records.in", "dfs.blocks.read",
// "sindex.partitions.created". Histogram names carry their unit as the
// last component ("map.task.duration_us", "sindex.partition.fill").
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// NumBuckets is the number of histogram buckets. Bucket i counts values v
// with 2^(i-1) <= v < 2^i (bucket 0 counts v < 1), so the buckets cover
// the full range of durations in microseconds, byte sizes and record
// counts the runtime observes.
const NumBuckets = 48

// bucketOf maps a value to its log-scale bucket index.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	i := int(math.Floor(math.Log2(v))) + 1
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketLo returns the inclusive lower bound of bucket i.
func BucketLo(i int) float64 {
	if i <= 0 {
		return 0
	}
	return math.Exp2(float64(i - 1))
}

// histogram accumulates observations into fixed log-scale buckets.
type histogram struct {
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [NumBuckets]int64
}

func (h *histogram) observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Buckets []int64 `json:"buckets"`
}

// Mean returns the mean observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) from
// the bucket boundaries.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen >= rank {
			hi := math.Exp2(float64(i))
			if hi > h.Max {
				hi = h.Max
			}
			return hi
		}
	}
	return h.Max
}

// String renders a compact one-line summary.
func (h HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50<=%.0f p95<=%.0f max=%.0f",
		h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Max)
}

// Snapshot is a point-in-time copy of a Registry, suitable for embedding
// in a job Report and serializing to JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Registry is a set of named counters, gauges and histograms. It is safe
// for concurrent use, but hot paths should not call it per emitted value:
// tasks accumulate into a TaskMetrics buffer and Merge it once at task
// end, so the registry mutex is taken once per task, not once per pair.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*histogram),
	}
}

// Inc adds delta to counter name.
func (r *Registry) Inc(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter returns the current value of counter name.
func (r *Registry) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge sets gauge name to v.
func (r *Registry) SetGauge(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe records one histogram observation. Master-side call sites only;
// task-side observations go through TaskMetrics.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	r.observeLocked(name, v)
	r.mu.Unlock()
}

func (r *Registry) observeLocked(name string, v float64) {
	h, ok := r.hists[name]
	if !ok {
		h = &histogram{}
		r.hists[name] = h
	}
	h.observe(v)
}

// Merge folds a task's local buffer into the registry under one lock.
func (r *Registry) Merge(t *TaskMetrics) {
	if t == nil {
		return
	}
	r.mu.Lock()
	for name, delta := range t.counters {
		r.counters[name] += delta
	}
	for name, vals := range t.observations {
		for _, v := range vals {
			r.observeLocked(name, v)
		}
	}
	r.mu.Unlock()
}

// Snapshot returns a deep copy of the registry state.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, h := range r.hists {
		buckets := make([]int64, NumBuckets)
		copy(buckets, h.buckets[:])
		s.Histograms[k] = HistogramSnapshot{
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: buckets,
		}
	}
	return s
}

// SortedCounterNames returns the snapshot's counter names in order.
func (s *Snapshot) SortedCounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TaskMetrics is a task-local metrics buffer. It is not safe for
// concurrent use — each task attempt owns one — and it only becomes
// visible when the runtime merges it into the job registry after the
// attempt succeeds, so failed attempts cost nothing and retries do not
// double-count.
type TaskMetrics struct {
	counters     map[string]int64
	observations map[string][]float64
}

// NewTaskMetrics creates an empty buffer.
func NewTaskMetrics() *TaskMetrics {
	return &TaskMetrics{
		counters:     make(map[string]int64),
		observations: make(map[string][]float64),
	}
}

// Inc adds delta to the buffered counter name. No locks are taken.
func (t *TaskMetrics) Inc(name string, delta int64) {
	t.counters[name] += delta
}

// Get returns the buffered value of counter name.
func (t *TaskMetrics) Get(name string) int64 { return t.counters[name] }

// Observe buffers one histogram observation.
func (t *TaskMetrics) Observe(name string, v float64) {
	t.observations[name] = append(t.observations[name], v)
}

// Sum returns the sum of the buffered observations of histogram name: a
// figure the attempt observed once reads back as itself.
func (t *TaskMetrics) Sum(name string) float64 {
	s := 0.0
	for _, v := range t.observations[name] {
		s += v
	}
	return s
}

// TaskMetricsWire is the serializable form of a TaskMetrics buffer. Remote
// workers execute task attempts in another process and ship the buffer
// back over RPC; the master imports it and merges it through the same
// win gate as an in-process attempt, so the exactly-once merge semantics
// are identical on both paths.
type TaskMetricsWire struct {
	Counters     map[string]int64
	Observations map[string][]float64
}

// Export copies the buffer into its wire form.
func (t *TaskMetrics) Export() TaskMetricsWire {
	w := TaskMetricsWire{
		Counters:     make(map[string]int64, len(t.counters)),
		Observations: make(map[string][]float64, len(t.observations)),
	}
	for k, v := range t.counters {
		w.Counters[k] = v
	}
	for k, vs := range t.observations {
		w.Observations[k] = append([]float64(nil), vs...)
	}
	return w
}

// ImportTaskMetrics rebuilds a TaskMetrics buffer from its wire form.
func ImportTaskMetrics(w TaskMetricsWire) *TaskMetrics {
	t := NewTaskMetrics()
	for k, v := range w.Counters {
		t.counters[k] = v
	}
	for k, vs := range w.Observations {
		t.observations[k] = append([]float64(nil), vs...)
	}
	return t
}
