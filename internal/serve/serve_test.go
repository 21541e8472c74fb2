package serve

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/sindex"
)

// newServeSystem stands up a system with the serving test corpus: two
// indexed point files under different techniques plus two tessellated
// region files for the join endpoint.
func newServeSystem(t *testing.T) *core.System {
	t.Helper()
	sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 7})
	area := geom.NewRect(0, 0, 10_000, 10_000)
	if _, err := sys.LoadPoints("pts1", datagen.Points(datagen.Clustered, 2500, area, 11), sindex.STR); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LoadPoints("pts2", datagen.Points(datagen.Uniform, 2000, area, 12), sindex.QuadTree); err != nil {
		t.Fatal(err)
	}
	toRegions := func(pgs []geom.Polygon) []geom.Region {
		out := make([]geom.Region, len(pgs))
		for i, pg := range pgs {
			out[i] = geom.RegionOf(pg)
		}
		return out
	}
	if _, err := sys.LoadRegions("a", toRegions(datagen.Tessellation(5, 5, area, 3)), sindex.Grid); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LoadRegions("b", toRegions(datagen.Tessellation(4, 4, area, 4)), sindex.Grid); err != nil {
		t.Fatal(err)
	}
	return sys
}

// serveQueries is the mixed workload: range, kNN, join and plot requests
// over all four files, several of them touching overlapping extents so
// concurrent jobs contend on the same blocks and local indexes.
func serveQueries() []string {
	var qs []string
	for _, file := range []string{"pts1", "pts2"} {
		qs = append(qs,
			"/rangequery?file="+file+"&rect=1000,1000,6000,6000",
			"/rangequery?file="+file+"&rect=2500,2500,7500,7500",
			"/rangequery?file="+file+"&rect=0,0,10000,10000",
			"/knn?file="+file+"&point=5000,5000&k=10",
			"/knn?file="+file+"&point=1234,8765&k=25",
		)
	}
	qs = append(qs,
		"/join?left=a&right=b",
		"/join?left=b&right=a",
		"/plot?file=pts1&width=64&height=64",
		"/plot?file=pts2&width=48&height=48",
	)
	return qs
}

// fetch issues one GET and returns status, body and the X-Cache header.
func fetch(t *testing.T, client *http.Client, url string) (int, []byte, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Cache")
}

// TestServeConcurrentOracle is the core serving-layer test: at least 64
// overlapping HTTP queries (mixed kinds, mixed files, mixed cache state)
// race against one shared cluster, and every single response must be
// byte-identical to the answer computed serially beforehand. Run under
// -race this also shakes out data races across the admission controller,
// slot pool, result cache and block caches.
func TestServeConcurrentOracle(t *testing.T) {
	sys := newServeSystem(t)
	queries := serveQueries()

	// Phase 1: serial oracles through an uncached server, one at a time —
	// memory tier off and planner forced to MapReduce, so the concurrent
	// servers below (default tier + auto planner) are checked across
	// engines: any local-path answer must be byte-identical to the
	// MapReduce oracle.
	oracleSrv := New(sys, Config{CacheSize: -1, MaxInFlight: 1, QueueDepth: 1, MemTierBytes: -1, Planner: PlannerMapReduce})
	ots := httptest.NewServer(oracleSrv.Handler())
	oracle := make(map[string][]byte, len(queries))
	for _, q := range queries {
		code, body, _ := fetch(t, ots.Client(), ots.URL+q)
		if code != http.StatusOK {
			t.Fatalf("oracle %s: status %d: %s", q, code, body)
		}
		oracle[q] = body
	}
	ots.Close()

	for _, tc := range []struct {
		name      string
		cacheSize int
	}{
		{name: "uncached", cacheSize: -1},
		{name: "cached", cacheSize: 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(sys, Config{
				CacheSize:   tc.cacheSize,
				MaxInFlight: 4,
				QueueDepth:  1024,
				JobDeadline: 30 * time.Second,
			})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			// Phase 2: the same queries, repeated and shuffled, fired all at
			// once. 5 repeats of 14 queries = 70 concurrent requests.
			const repeats = 5
			var workload []string
			for i := 0; i < repeats; i++ {
				workload = append(workload, queries...)
			}
			rng := rand.New(rand.NewSource(99))
			rng.Shuffle(len(workload), func(i, j int) { workload[i], workload[j] = workload[j], workload[i] })
			if len(workload) < 64 {
				t.Fatalf("workload has %d requests, want >= 64", len(workload))
			}

			errs := make([]error, len(workload))
			var wg sync.WaitGroup
			for i, q := range workload {
				wg.Add(1)
				go func(i int, q string) {
					defer wg.Done()
					resp, err := ts.Client().Get(ts.URL + q)
					if err != nil {
						errs[i] = err
						return
					}
					defer resp.Body.Close()
					body, err := io.ReadAll(resp.Body)
					if err != nil {
						errs[i] = err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs[i] = fmt.Errorf("%s: status %d: %s", q, resp.StatusCode, body)
						return
					}
					if want := oracle[q]; string(body) != string(want) {
						errs[i] = fmt.Errorf("%s: body diverged from serial oracle\n got: %.200s\nwant: %.200s", q, body, want)
					}
				}(i, q)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}

			if tc.cacheSize > 0 {
				// A warm re-request must hit and still be byte-identical
				// (X-Cache is the only permitted difference). The concurrent
				// phase itself may see anywhere from 0 to 56 hits — all
				// duplicates can probe before the first Put lands — so only
				// this post-quiescence hit is deterministic.
				q := queries[0]
				code, body, cacheHdr := fetch(t, ts.Client(), ts.URL+q)
				if code != http.StatusOK || cacheHdr != "hit" {
					t.Fatalf("expected warm hit for %s, got status %d X-Cache=%q", q, code, cacheHdr)
				}
				if string(body) != string(oracle[q]) {
					t.Errorf("cache hit body diverged from oracle for %s", q)
				}
			}
		})
	}
}

// TestServeGracefulDrain: after Shutdown starts, healthz flips to 503,
// in-flight queries still complete correctly, and new jobs are refused
// with 503 rather than hanging.
func TestServeGracefulDrain(t *testing.T) {
	sys := newServeSystem(t)
	srv := New(sys, Config{CacheSize: -1, MaxInFlight: 2, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := "/rangequery?file=pts1&rect=1000,1000,6000,6000"
	_, want, _ := fetch(t, ts.Client(), ts.URL+q)

	// Launch a burst of queries, then shut down while they are in flight.
	const n = 12
	type result struct {
		code int
		body []byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, _ := fetch(t, ts.Client(), ts.URL+q)
			results[i] = result{code: code, body: body}
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	for i, r := range results {
		switch r.code {
		case http.StatusOK:
			if string(r.body) != string(want) {
				t.Errorf("request %d completed during drain with wrong body", i)
			}
		case http.StatusServiceUnavailable:
			// Refused after drain began — acceptable.
		default:
			t.Errorf("request %d: status %d: %s", i, r.code, r.body)
		}
	}

	if code, body, _ := fetch(t, ts.Client(), ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: status %d body %q, want 503", code, body)
	}
	if code, _, _ := fetch(t, ts.Client(), ts.URL+q); code != http.StatusServiceUnavailable {
		t.Errorf("query after drain: status %d, want 503", code)
	}
}

// TestServeErrors pins the error mapping: bad parameters are 400, a
// missing file is 404, both with deterministic JSON bodies.
func TestServeErrors(t *testing.T) {
	sys := newServeSystem(t)
	srv := New(sys, Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		url  string
		code int
	}{
		{"/rangequery?file=pts1&rect=1,2,3", http.StatusBadRequest},
		{"/rangequery?rect=1,2,3,4", http.StatusBadRequest},
		{"/rangequery?file=nope&rect=1,2,3,4", http.StatusNotFound},
		{"/knn?file=pts1&point=5,5&k=0", http.StatusBadRequest},
		{"/knn?file=pts1&point=oops&k=3", http.StatusBadRequest},
		{"/knn?file=pts1&point=Inf,0&k=3", http.StatusBadRequest},
		{"/knn?file=pts1&point=0,-Inf&k=3", http.StatusBadRequest},
		{"/knn?file=pts1&point=NaN,0&k=3", http.StatusBadRequest},
		{"/knn?file=pts1&point=NaN,NaN&k=3", http.StatusBadRequest},
		{"/rangequery?file=pts1&rect=NaN,0,10,10", http.StatusBadRequest},
		{"/rangequery?file=pts1&rect=0,0,10,NaN", http.StatusBadRequest},
		// An infinite side is an unbounded window, not an error.
		{"/rangequery?file=pts1&rect=0,0,Inf,Inf", http.StatusOK},
		{"/rangequery?file=pts1&rect=-Inf,-Inf,Inf,Inf", http.StatusOK},
		{"/join?left=a", http.StatusBadRequest},
		{"/join?left=a&right=nope", http.StatusNotFound},
		{"/plot?file=pts1&width=-3", http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body, _ := fetch(t, ts.Client(), ts.URL+tc.url)
		if code != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.url, code, body, tc.code)
		}
	}
}

// TestServeTempOutputsCleaned: query outputs are per-request temporaries
// and must not accumulate in the DFS.
func TestServeTempOutputsCleaned(t *testing.T) {
	sys := newServeSystem(t)
	srv := New(sys, Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := len(sys.FS().List())
	for _, q := range []string{
		"/rangequery?file=pts1&rect=1000,1000,6000,6000",
		"/knn?file=pts1&point=5000,5000&k=5",
		"/join?left=a&right=b",
		"/plot?file=pts2&width=32&height=32",
	} {
		if code, body, _ := fetch(t, ts.Client(), ts.URL+q); code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, code, body)
		}
	}
	if after := len(sys.FS().List()); after != before {
		t.Errorf("DFS grew from %d to %d files; temporary query outputs leaked: %v", before, after, sys.FS().List())
	}
}
