package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 1}, {1.5, 1}, {2, 2}, {3, 2}, {4, 3}, {1024, 11},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := bucketOf(1e30); got != NumBuckets-1 {
		t.Errorf("huge value bucket = %d, want %d", got, NumBuckets-1)
	}
	// Bucket bounds must be consistent with assignment: BucketLo(i) is the
	// smallest value mapping to bucket i.
	for i := 1; i < 10; i++ {
		if bucketOf(BucketLo(i)) != i {
			t.Errorf("BucketLo(%d)=%v maps to bucket %d", i, BucketLo(i), bucketOf(BucketLo(i)))
		}
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Inc("a", 2)
	r.Inc("a", 3)
	r.SetGauge("g", 0.75)
	if r.Counter("a") != 5 {
		t.Errorf("counter a = %d", r.Counter("a"))
	}
	s := r.Snapshot()
	if s.Counters["a"] != 5 || s.Gauges["g"] != 0.75 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	for i := 1; i <= 100; i++ {
		r.Observe("h", float64(i))
	}
	h := r.Snapshot().Histograms["h"]
	if h.Count != 100 || h.Min != 1 || h.Max != 100 {
		t.Fatalf("histogram = %+v", h)
	}
	if m := h.Mean(); m != 50.5 {
		t.Errorf("mean = %v", m)
	}
	// Quantiles are bucket upper bounds: p50 of 1..100 lands in the
	// [32,64) bucket, so the bound is 64.
	if q := h.Quantile(0.5); q != 64 {
		t.Errorf("p50 bound = %v, want 64", q)
	}
	if q := h.Quantile(1.0); q != 100 {
		t.Errorf("p100 bound = %v, want max", q)
	}
	if !strings.Contains(h.String(), "n=100") {
		t.Errorf("String() = %q", h.String())
	}
}

func TestTaskMetricsMergeOnce(t *testing.T) {
	r := NewRegistry()
	tm := NewTaskMetrics()
	tm.Inc("records", 7)
	tm.Inc("records", 3)
	tm.Observe("dur", 12)
	// Nothing visible before the merge.
	if r.Counter("records") != 0 {
		t.Fatal("task buffer leaked into registry before merge")
	}
	r.Merge(tm)
	if r.Counter("records") != 10 {
		t.Errorf("records = %d", r.Counter("records"))
	}
	if h := r.Snapshot().Histograms["dur"]; h.Count != 1 || h.Sum != 12 {
		t.Errorf("dur histogram = %+v", h)
	}
	r.Merge(nil) // must be a no-op
}

func TestRegistryConcurrentMerge(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm := NewTaskMetrics()
			for j := 0; j < 100; j++ {
				tm.Inc("n", 1)
				tm.Observe("v", float64(j))
			}
			r.Merge(tm)
		}()
	}
	wg.Wait()
	if r.Counter("n") != 3200 {
		t.Errorf("n = %d", r.Counter("n"))
	}
	if h := r.Snapshot().Histograms["v"]; h.Count != 3200 {
		t.Errorf("v count = %d", h.Count)
	}
}
