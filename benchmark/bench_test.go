package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"spatialhadoop/internal/geom"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 100}, {0.95, 190}, {0.99, 198}, {1, 200}, {0.001, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %g, want the sample", got)
	}
}

func TestTailBeyondRule(t *testing.T) {
	// p95 needs ten samples beyond its rank: 200 samples leave exactly ten.
	for _, c := range []struct{ n, want int }{{200, 10}, {199, 9}, {100, 5}, {1000, 50}, {1, 0}} {
		if got := tailBeyond(c.n, 0.95); got != c.want {
			t.Errorf("tailBeyond(%d, 0.95) = %d, want %d", c.n, got, c.want)
		}
	}
	if tailBeyond(199, 0.95) >= minTail || tailBeyond(200, 0.95) < minTail {
		t.Error("the ten-sample rule must pass at 200 samples and fail at 199")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g, want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 150}, {140, 160}}, 50},
		{"nested", []interval{{110, 180}, {120, 130}, {125, 128}}, 30},
		{"clipped to the parent", []interval{{50, 120}, {190, 400}}, 70},
		{"outside the parent", []interval{{0, 100}, {200, 300}}, 100},
		{"covers the parent", []interval{{0, 1000}}, 0},
		{"unordered", []interval{{150, 170}, {110, 120}}, 70},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimesBySpanName(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Name: "exec", StartUS: 10, DurUS: 60},
		{ID: 3, Parent: 1, Name: "encode", StartUS: 60, DurUS: 30}, // overlaps exec by 10
		{ID: 4, Parent: 2, Name: "job", StartUS: 20, DurUS: 40},    // a grandchild is not request's child
	}
	got := selfTimes(spans)
	want := map[string][]float64{"request": {20}, "exec": {20}, "encode": {30}, "job": {40}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	sz := sizesFor(0.05)
	gen := func(seed int64) (any, any, any, any) {
		pts := genPoints(seed, sz.points)
		pools := genJobPools(seed, pts, sz)
		var rounds [][]jobOp
		for r := 0; r < 6; r++ {
			rounds = append(rounds, jobRound(r, pools, false), jobRound(r, pools, true))
		}
		return genPool(seed, "pts", pts, sz.pool), pools, rounds, clientOrder(seed, 1, sz.pool)
	}
	a1, b1, c1, d1 := gen(7)
	a2, b2, c2, d2 := gen(7)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(d1, d2) {
		t.Fatal("the same seed gave different inputs")
	}
	a3, b3, _, d3 := gen(8)
	if reflect.DeepEqual(a1, a3) || reflect.DeepEqual(b1, b3) || reflect.DeepEqual(d1, d3) {
		t.Fatal("different seeds gave the same pool, job pools or client order")
	}
	if reflect.DeepEqual(clientOrder(7, 0, 64), clientOrder(7, 1, 64)) {
		t.Fatal("two clients walk the pool in the same order")
	}
}

// TestPoolMixIsLaidOut holds the serving mix to its proportions in every
// stretch of the pool, not only on average: the ingest workload sends
// twelve queries at a time.
func TestPoolMixIsLaidOut(t *testing.T) {
	pts := genPoints(5, 4000)
	pool := genPool(5, "pts", pts, 480)
	ks := map[int]int{}
	for lo := 0; lo < len(pool); lo += 12 {
		knn := 0
		for _, q := range pool[lo : lo+12] {
			if q.KNN {
				knn++
				ks[q.K]++
			}
		}
		if knn < 3 || knn > 4 {
			t.Errorf("queries %d..%d hold %d kNN, want 3 or 4 of 12", lo, lo+11, knn)
		}
	}
	if ks[1] != 48 || ks[10] != 48 || ks[50] != 48 {
		t.Errorf("kNN k values are used %v times, want 48 each", ks)
	}
	// Any eight sizes in a row cover the range: none of the four quarters
	// of [0, 1) is left empty.
	seq := evenSeq{start: 0.37}
	for lo := 0; lo < 64; lo += 8 {
		var quarters [4]int
		for i := 0; i < 8; i++ {
			quarters[int(seq.next()*4)]++
		}
		for q, n := range quarters {
			if n == 0 {
				t.Errorf("sizes %d..%d leave quarter %d empty: %v", lo, lo+7, q, quarters)
			}
		}
	}
}

func TestReferenceAllocatesNothing(t *testing.T) {
	ref := newReference()
	if allocs := testing.AllocsPerRun(5, func() { ref.run() }); allocs != 0 {
		t.Errorf("one reference run allocates %v times; allocation per operation would need a correction", allocs)
	}
	if s := ref.run(); s <= 0 || math.IsInf(s, 0) {
		t.Errorf("slowdown = %v", s)
	}
}

// TestMeasureSlices checks the slice bookkeeping: whole slices until the
// window is spent, failures kept out of the operation counts, and every
// latency divided by its own slice's slowdown.
func TestMeasureSlices(t *testing.T) {
	ws := measure(60*time.Millisecond, newReference(), func(i int) *opLog {
		log := &opLog{}
		for j := 0; j < 10; j++ {
			log.ok(2 * time.Millisecond)
		}
		if i == 1 {
			log.fail(errors.New("diverged"))
		}
		time.Sleep(10 * time.Millisecond)
		return log
	})
	n := len(ws.slices)
	if n < 2 || n > 6 {
		t.Fatalf("%d slices in a 60 ms window of 10 ms slices", n)
	}
	if ws.attempted != int64(10*n+1) || ws.failed != 1 || ws.correctOps() != int64(10*n) {
		t.Errorf("attempted %d failed %d over %d slices", ws.attempted, ws.failed, n)
	}
	if len(ws.latMS) != 10*n || len(ws.refLatMS) != 10*n {
		t.Fatalf("%d raw and %d reference latencies, want %d", len(ws.latMS), len(ws.refLatMS), 10*n)
	}
	for i, s := range ws.slices {
		if s.Ops != 10 || s.Slowdown <= 0 || s.WallMS < 10 {
			t.Errorf("slice %d = %+v", i, s)
		}
		if got, want := ws.refLatMS[10*i], 2/s.Slowdown; math.Abs(got-want) > 1e-9 {
			t.Errorf("slice %d: reference latency %g, want %g", i, got, want)
		}
		if got, want := s.opsPerSec(), 10/(s.WallMS/s.Slowdown/1e3); math.Abs(got-want) > 1e-6 {
			t.Errorf("slice %d: %g ops/s, want %g", i, got, want)
		}
	}
}

func TestJobRoundShape(t *testing.T) {
	pools := jobPools{Windows: make([]geom.Rect, 64), KNN: make([]geom.Point, 32), Heap: make([]geom.Rect, 8)}
	count := func(ops []jobOp) map[string]int {
		m := map[string]int{}
		for _, op := range ops {
			m[op.Kind]++
		}
		return m
	}
	want := map[string]int{jobRangeIdx: 8, jobKNN: 4, jobRangeHeap: 1, jobJoin: 1, jobSkyline: 1, jobHull: 1}
	if got := count(jobRound(0, pools, false)); !reflect.DeepEqual(got, want) {
		t.Errorf("round 0 = %v, want %v", got, want)
	}
	want[jobClosest] = 1
	if got := count(jobRound(3, pools, false)); !reflect.DeepEqual(got, want) {
		t.Errorf("round 3 = %v, want %v", got, want)
	}
	for _, op := range jobRound(3, pools, true) {
		if !remotable(op.Kind) {
			t.Errorf("remote round runs %s, which has no registered job kind", op.Kind)
		}
	}
	// Eight rounds walk every window once.
	seen := map[int]bool{}
	for r := 0; r < 8; r++ {
		for _, op := range jobRound(r, pools, true) {
			if op.Kind == jobRangeIdx {
				seen[op.Arg] = true
			}
		}
	}
	if len(seen) != 64 {
		t.Errorf("eight rounds covered %d of 64 windows", len(seen))
	}
	combos := map[[2]int]bool{}
	for c := 0; c < 16; c++ {
		s, tech := ingestCycle(c)
		combos[[2]int{s, tech}] = true
	}
	if len(combos) != 16 {
		t.Errorf("sixteen ingest cycles covered %d of 16 slice/technique pairs", len(combos))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is malformed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			check(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Better != lower && m.Better != higher {
				t.Errorf("metric %s: better is %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(perLayer), len(endToEnd))
	}
}

// benchmarkJSON mirrors the keys of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloads) {
		t.Errorf("BENCHMARK.json workloads differ from spec.go:\n%v\n%v", doc.Workloads, workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from spec.go:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from spec.go")
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the harness default is %d", doc.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("BENCHMARK.json paths = %v", doc.Paths)
	}
}

func TestJudge(t *testing.T) {
	lat := metricSpec{Name: "op_p50_ms", Better: lower, Bound: 0.10}
	qps := metricSpec{Name: "ops_per_s", Better: higher, Bound: 0.10}
	for _, c := range []struct {
		name      string
		m         metricSpec
		base, new []float64
		want      string
	}{
		{"same", lat, []float64{10}, []float64{10}, verdictOK},
		{"latency up within the bound", lat, []float64{10}, []float64{10.9}, verdictOK},
		{"latency up past the bound", lat, []float64{10}, []float64{11.1}, verdictWorse},
		{"latency down", lat, []float64{10}, []float64{5}, verdictOK},
		{"throughput down past the bound", qps, []float64{100}, []float64{89}, verdictWorse},
		{"throughput up", qps, []float64{100}, []float64{150}, verdictOK},
		{"base spread wider than the bound", lat, []float64{8, 10, 12, 14}, []float64{20, 20, 20, 20}, verdictUnresolved},
		{"new spread wider than the bound", lat, []float64{10, 10, 10, 10}, []float64{8, 10, 12, 14}, verdictUnresolved},
	} {
		if got := judge(c.m, c.base, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSmoke runs every workload at a twentieth of its scale for a second or
// so with every check on — oracle comparison, path assertions, the ten-sample
// rule — first timed, then traced, and holds the metric names each run
// emits to the spec.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/timed"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				window := time.Second
				if w.Name == wJobsRemote && !traced {
					// A remote task costs about 5 ms however small its split,
					// so one second leaves too few jobs for the ten-sample rule.
					window = 3 * time.Second
				}
				res, err := runWorkload(runConfig{workload: w.Name, seed: 3, window: window, traced: traced, scale: 0.05, outDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d failed %d problems %v", res.Attempted, res.Failed, res.Problems)
				}
				want := endToEnd
				if traced {
					want = perLayer
					if _, err := os.Stat(runConfig{workload: w.Name, outDir: dir}.tracePath()); err != nil {
						t.Errorf("no trace written: %v", err)
					}
				}
				var wantNames []string
				for _, m := range want {
					wantNames = append(wantNames, m.Name)
				}
				sort.Strings(wantNames)
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				if !reflect.DeepEqual(got, wantNames) {
					t.Errorf("emitted metrics %v, the spec lists %v", got, wantNames)
				}
				for name, v := range res.Metrics {
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v", name, v.Value)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
					}
				}
			})
		}
	}
}
