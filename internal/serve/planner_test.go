package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
)

// TestPlannerForcedModes: the three planner modes must return
// byte-identical bodies while routing to the engines they promise —
// X-Engine reports "local" under forced local, "mapreduce" under forced
// MapReduce, and auto picks local for selective queries and MapReduce for
// full scans.
func TestPlannerForcedModes(t *testing.T) {
	sys := newServeSystem(t)
	servers := map[string]*httptest.Server{}
	for _, mode := range []string{PlannerAuto, PlannerLocal, PlannerMapReduce} {
		srv := New(sys, Config{CacheSize: -1, Planner: mode})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		servers[mode] = ts
	}

	queries := []struct {
		path       string
		autoEngine string // expected X-Engine under the auto planner
	}{
		{"/rangequery?file=pts1&rect=2000,2000,3500,3500", PlannerLocal},
		{"/rangequery?file=pts1&rect=0,0,10000,10000", PlannerMapReduce},
		{"/knn?file=pts1&point=5000,5000&k=10", PlannerLocal},
		{"/knn?file=pts2&point=100,9900&k=3", PlannerLocal},
	}
	for _, q := range queries {
		bodies := map[string][]byte{}
		engines := map[string]string{}
		for mode, ts := range servers {
			resp, err := ts.Client().Get(ts.URL + q.path)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s mode %s: status %d: %s", q.path, mode, resp.StatusCode, body)
			}
			bodies[mode] = body
			engines[mode] = resp.Header.Get("X-Engine")
		}
		if !bytes.Equal(bodies[PlannerLocal], bodies[PlannerMapReduce]) || !bytes.Equal(bodies[PlannerAuto], bodies[PlannerMapReduce]) {
			t.Fatalf("%s: bodies differ across planner modes", q.path)
		}
		if engines[PlannerLocal] != PlannerLocal {
			t.Errorf("%s: forced local served by %q", q.path, engines[PlannerLocal])
		}
		if engines[PlannerMapReduce] != PlannerMapReduce {
			t.Errorf("%s: forced mapreduce served by %q", q.path, engines[PlannerMapReduce])
		}
		if engines[PlannerAuto] != q.autoEngine {
			t.Errorf("%s: auto planner served by %q, want %q", q.path, engines[PlannerAuto], q.autoEngine)
		}
	}
}

// TestPlannerHeapFallsBack: heap files have no global index, so even a
// forced-local planner must route them to MapReduce (and still answer
// correctly).
func TestPlannerHeapFallsBack(t *testing.T) {
	sys := newServeSystem(t)
	if err := sys.LoadPointsHeap("heap", datagen.Points(datagen.Uniform, 500, geom.NewRect(0, 0, 100, 100), 3)); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, Config{CacheSize: -1, Planner: PlannerLocal})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/rangequery?file=heap&rect=10,10,40,40")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if eng := resp.Header.Get("X-Engine"); eng != PlannerMapReduce {
		t.Errorf("heap file served by %q, want mapreduce", eng)
	}
}

// TestSingleflightCoalesces: concurrent identical cold-key requests run
// one build; followers report X-Cache=coalesced with byte-identical
// bodies. The flightGroup is driven directly with a gated build so the
// overlap is deterministic, then an HTTP smoke run checks the wiring.
func TestSingleflightCoalesces(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	builds := 0
	leaderDone := make(chan struct{})
	var followerBody []byte
	var followerCoalesced bool
	followerDone := make(chan struct{})

	go func() {
		defer close(leaderDone)
		body, _, coalesced, err := g.do(t.Context(), "k", func() ([]byte, *execMeta, error) {
			builds++
			close(started)
			<-release
			return []byte("built"), &execMeta{engine: PlannerLocal}, nil
		})
		if err != nil || coalesced || string(body) != "built" {
			t.Errorf("leader: body %q coalesced %v err %v", body, coalesced, err)
		}
	}()
	<-started
	followerEntered := make(chan struct{})
	go func() {
		defer close(followerDone)
		close(followerEntered)
		body, meta, coalesced, err := g.do(t.Context(), "k", func() ([]byte, *execMeta, error) {
			builds++
			return []byte("dup"), nil, nil
		})
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followerBody, followerCoalesced = body, coalesced
		if meta == nil || meta.engine != PlannerLocal {
			t.Errorf("follower meta = %+v, want leader's", meta)
		}
	}()
	// The leader's entry is already in the flight map (it registered before
	// closing started), so the follower coalesces as soon as its do() runs
	// the map lookup; the grace sleep lets it get there before release.
	<-followerEntered
	time.Sleep(50 * time.Millisecond)
	close(release)
	<-leaderDone
	<-followerDone
	if builds != 1 {
		t.Fatalf("builds = %d, want 1 (coalesced)", builds)
	}
	if !followerCoalesced || string(followerBody) != "built" {
		t.Fatalf("follower: coalesced=%v body=%q", followerCoalesced, followerBody)
	}

	// HTTP smoke: 16 identical requests against an uncached server; every
	// body matches, and leaders + followers account for all 16.
	sys := newServeSystem(t)
	srv := New(sys, Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const n = 16
	var wg sync.WaitGroup
	states := make([]string, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, cache := fetch(t, ts.Client(), ts.URL+"/rangequery?file=pts1&rect=1000,1000,4000,4000")
			if code == http.StatusOK {
				states[i], bodies[i] = cache, body
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if states[i] == "" {
			t.Fatalf("request %d failed", i)
		}
		if states[i] != "miss" && states[i] != "coalesced" {
			t.Fatalf("request %d: X-Cache %q, want miss or coalesced", i, states[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs", i)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedCancelled: a request whose context is already cancelled
// stops before the plan runs — no pin, no scatter, nothing observed.
func TestShardedCancelled(t *testing.T) {
	sys := newServeSystem(t)
	srv := New(sys, Config{CacheSize: -1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f, err := sys.FS().Open("pts1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.shardedRange(ctx, f, "0,0,10000,10000", geom.NewRect(0, 0, 10000, 10000)); !errors.Is(err, context.Canceled) {
		t.Errorf("shardedRange err = %v, want context.Canceled", err)
	}
	if _, _, err := srv.shardedKNN(ctx, f, geom.Pt(5000, 5000), 5); !errors.Is(err, context.Canceled) {
		t.Errorf("shardedKNN err = %v, want context.Canceled", err)
	}
	snap := srv.Metrics().Snapshot()
	if h := snap.Histograms["serve.shard.fanout"]; h.Count != 0 {
		t.Errorf("serve.shard.fanout observed %d times under a cancelled context", h.Count)
	}
	if pinned, _ := srv.mt.Stats(); pinned != 0 {
		t.Errorf("cancelled queries pinned %d partitions", pinned)
	}
}
