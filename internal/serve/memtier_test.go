package serve

import (
	"bytes"
	"fmt"
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

// counterValue reads a counter from the serving registry snapshot.
func counterValue(s *Server, name string) int64 {
	return s.Metrics().Snapshot().Counters[name]
}

// TestMemTierEvictionBudget: a budget far below the file's footprint
// forces LRU eviction on every new pin, yet answers stay correct and the
// tier's byte accounting never exceeds budget (modulo the single newest
// entry, which is always allowed to stay).
func TestMemTierEvictionBudget(t *testing.T) {
	sys := newServeSystem(t)
	srv := New(sys, Config{CacheSize: -1, MemTierBytes: 4 << 10, Planner: PlannerLocal})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	oracleSrv := New(sys, Config{CacheSize: -1, MemTierBytes: -1, Planner: PlannerMapReduce})
	ots := httptest.NewServer(oracleSrv.Handler())
	defer ots.Close()

	queries := []string{
		"/rangequery?file=pts1&rect=0,0,2500,2500",
		"/rangequery?file=pts1&rect=7500,7500,10000,10000",
		"/rangequery?file=pts1&rect=0,7500,2500,10000",
		"/knn?file=pts1&point=9000,1000&k=15",
		"/rangequery?file=pts1&rect=0,0,2500,2500",
	}
	for _, q := range queries {
		code, body, _ := fetch(t, ts.Client(), ts.URL+q)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, code, body)
		}
		_, want, _ := fetch(t, ots.Client(), ots.URL+q)
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: local body under eviction pressure != mapreduce oracle", q)
		}
		parts, bytesPinned := srv.mt.Stats()
		if parts > 1 && bytesPinned > 4<<10 {
			t.Fatalf("tier holds %d parts / %d bytes, budget 4096", parts, bytesPinned)
		}
	}
	if evs := counterValue(srv, "serve.memtier.evictions"); evs == 0 {
		t.Error("no evictions recorded under a 4KiB budget")
	}
}

// TestMemTierEpochInvalidation: mutating a file must (a) eagerly drop its
// pinned partitions via the DFS epoch hook and (b) never let a stale pin
// answer for the new epoch — fresh queries see the new data.
func TestMemTierEpochInvalidation(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 7})
	area := geom.NewRect(0, 0, 1000, 1000)
	pts := datagen.Points(datagen.Clustered, 800, area, 5)
	if _, err := sys.LoadPoints("pts", pts, sindex.STR); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, Config{CacheSize: -1, Planner: PlannerLocal})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const q = "/rangequery?file=pts&rect=0,0,1000,1000"
	code, body1, _ := fetch(t, ts.Client(), ts.URL+q)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if parts, _ := srv.mt.Stats(); parts == 0 {
		t.Fatal("query pinned nothing")
	}

	// Rewrite the file with one extra point: every mutation stamps a new
	// epoch, and the hook drops the pins mid-write.
	pts2 := append(append([]geom.Point{}, pts...), geom.Pt(123.5, 456.5))
	if _, err := sys.LoadPoints("pts", pts2, sindex.STR); err != nil {
		t.Fatal(err)
	}
	if parts, bytesPinned := srv.mt.Stats(); parts != 0 || bytesPinned != 0 {
		t.Fatalf("after rewrite: %d partitions / %d bytes still pinned", parts, bytesPinned)
	}
	if inv := counterValue(srv, "serve.memtier.invalidations"); inv == 0 {
		t.Error("no invalidations recorded")
	}

	_, body2, _ := fetch(t, ts.Client(), ts.URL+q)
	if bytes.Equal(body1, body2) {
		t.Fatal("post-rewrite response identical to pre-rewrite response")
	}
	if !bytes.Contains(body2, []byte(`{"x":123.5,"y":456.5}`)) {
		t.Fatalf("post-rewrite response misses the new point: %s", body2)
	}
}

// TestMemTierEvictionEpochInterleaving races concurrent query waves (under
// a budget small enough to force eviction churn and with concurrent direct
// invalidations) against a replacement of the queried file in the middle of
// each wave. Every response must match, whole, the MapReduce oracle of the
// generation the wave began with or of the one it publishes, and once the
// wave is over only the new one. Run under -race this exercises
// pin/evict/invalidate/publish interleavings end to end.
func TestMemTierEvictionEpochInterleaving(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 1024, Workers: 4, Seed: 9})
	area := geom.NewRect(0, 0, 1000, 1000)
	base := datagen.Points(datagen.Clustered, 900, area, 31)
	load := func(extra int) error {
		pts := append([]geom.Point{}, base...)
		for i := 0; i < extra; i++ {
			pts = append(pts, geom.Pt(float64(i)+0.25, float64(i)+0.75))
		}
		_, err := sys.LoadPoints("pts", pts, sindex.QuadTree)
		return err
	}
	if err := load(0); err != nil {
		t.Fatal(err)
	}

	// The oracle: tier off (so it never takes the epoch hook), forced jobs.
	ots := httptest.NewServer(New(sys, Config{CacheSize: -1, MemTierBytes: -1, Planner: PlannerMapReduce, MaxInFlight: 4, QueueDepth: 1024, JobDeadline: 30 * time.Second}).Handler())
	defer ots.Close()
	srv := New(sys, Config{CacheSize: -1, MemTierBytes: 8 << 10, Planner: PlannerLocal, MaxInFlight: 4, QueueDepth: 1024, JobDeadline: 30 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	queries := []string{
		"/rangequery?file=pts&rect=0,0,400,400",
		"/rangequery?file=pts&rect=600,600,1000,1000",
		"/rangequery?file=pts&rect=0,600,400,1000",
		"/rangequery?file=pts&rect=0,0,1000,1000",
		"/knn?file=pts&point=100,900&k=12",
		"/knn?file=pts&point=0.5,0.5&k=7",
	}
	oracleNow := func(wave int) map[string][]byte {
		oracle := make(map[string][]byte, len(queries))
		for _, q := range queries {
			code, body, _ := fetch(t, ots.Client(), ots.URL+q)
			if code != http.StatusOK {
				t.Fatalf("wave %d oracle %s: status %d: %s", wave, q, code, body)
			}
			oracle[q] = body
		}
		return oracle
	}

	before := oracleNow(0)
	for wave := 0; wave < 3; wave++ {
		const repeats = 4
		type answer struct {
			q    string
			body []byte
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(queries)*repeats+1)
		answers := make(chan answer, len(queries)*repeats)
		for rep := 0; rep < repeats; rep++ {
			for _, q := range queries {
				wg.Add(1)
				go func(q string) {
					defer wg.Done()
					code, body, _ := fetch(t, ts.Client(), ts.URL+q)
					if code != http.StatusOK {
						errs <- errf("wave %d %s: status %d", wave, q, code)
						return
					}
					answers <- answer{q, body}
				}(q)
			}
		}
		// Concurrent direct invalidations stress pin-vs-drop interleaving
		// (they change no epoch, so answers are unaffected).
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.mt.Invalidate("pts")
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := load(wave + 1); err != nil {
				errs <- err
			}
		}()
		wg.Wait()
		close(errs)
		close(answers)
		for err := range errs {
			t.Error(err)
		}
		after := oracleNow(wave + 1)
		for a := range answers {
			if !bytes.Equal(a.body, before[a.q]) && !bytes.Equal(a.body, after[a.q]) {
				t.Errorf("wave %d %s: body is neither generation's oracle", wave, a.q)
			}
		}
		// Whatever the replaced generation left pinned cannot answer for
		// the new one.
		for _, q := range queries {
			if code, body, _ := fetch(t, ts.Client(), ts.URL+q); code != http.StatusOK || !bytes.Equal(body, after[q]) {
				t.Errorf("wave %d %s after the replacement: status %d, body != oracle", wave, q, code)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		before = after
	}
}

func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}
