// Cross-worker epoch correctness for the sharded engine: partitions are
// pinned in per-worker memory tiers, so a DFS rewrite on the master must
// invalidate worker-held pins — eagerly via the heartbeat epoch feed, and
// as a hard backstop via the epoch key every exec call carries. External
// test package: these tests drive real workers, and internal/worker
// imports internal/serve for the tier.
package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/serve"
	"spatialhadoop/internal/sindex"
	"spatialhadoop/internal/worker"
)

// startServeWorkers attaches a master (replication 2, fast heartbeats)
// and n serve-capable goroutine workers to sys.
func startServeWorkers(t *testing.T, sys *core.System, n int) ([]*worker.Worker, func()) {
	t.Helper()
	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{
		HeartbeatEvery: 5 * time.Millisecond,
		Lease:          100 * time.Millisecond,
		Metrics:        sys.Metrics(),
		Replication:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*worker.Worker, 0, n)
	stop := func() {
		for _, w := range workers {
			w.Stop()
		}
		m.Stop()
	}
	for i := 0; i < n; i++ {
		w, err := worker.Start(worker.Config{Master: m.Addr(), Dir: t.TempDir(), Tasks: 2, FakePID: 9200 + i, ServeTasks: true})
		if err != nil {
			stop()
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.LiveWorkers() < n {
		if time.Now().After(deadline) {
			stop()
			t.Fatal("serve workers never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return workers, stop
}

func tierPartitions(workers []*worker.Worker) int {
	total := 0
	for _, w := range workers {
		parts, _ := w.ServeTierStats()
		total += parts
	}
	return total
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	body, err := getBodyErr(url)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// getBodyErr is getBody for a goroutine other than the test's.
func getBodyErr(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return string(body), nil
}

// TestShardedEpochInvalidation: a rewrite of a file whose partitions are
// pinned on workers must (a) eagerly empty the worker tiers through the
// heartbeat epoch feed — no query needed — and (b) never let a stale
// worker pin answer for the new epoch: the first post-rewrite sharded
// query sees the new point.
func TestShardedEpochInvalidation(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 7})
	area := geom.NewRect(0, 0, 1000, 1000)
	pts := datagen.Points(datagen.Clustered, 800, area, 5)
	if _, err := sys.LoadPoints("pts", pts, sindex.STR); err != nil {
		t.Fatal(err)
	}
	workers, stop := startServeWorkers(t, sys, 2)
	defer stop()

	srv := serve.New(sys, serve.Config{CacheSize: -1, Planner: serve.PlannerSharded})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const query = "/rangequery?file=pts&rect=0,0,1000,1000"
	before := getBody(t, ts.URL+query)
	if strings.Contains(before, `"x":123.5,"y":456.5`) {
		t.Fatal("sentinel point present before the rewrite")
	}
	if tierPartitions(workers) == 0 {
		t.Fatal("sharded query pinned nothing on the workers")
	}

	// Rewrite with one extra point: a new epoch. The heartbeat feed must
	// drain every worker pin of the old epoch without any further query.
	pts2 := append(append([]geom.Point{}, pts...), geom.Pt(123.5, 456.5))
	if _, err := sys.LoadPoints("pts", pts2, sindex.STR); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tierPartitions(workers) != 0 {
		if time.Now().After(deadline) {
			parts := tierPartitions(workers)
			t.Fatalf("%d stale worker pins survived the epoch bump", parts)
		}
		time.Sleep(time.Millisecond)
	}

	after := getBody(t, ts.URL+query)
	if !strings.Contains(after, `"x":123.5,"y":456.5`) {
		t.Fatalf("post-rewrite sharded response misses the new point: %.300q", after)
	}
}

// TestCacheKeyEngineless pins the result-cache contract: the key is
// (operation, file@epoch, canonical query) — the engine never enters it.
// All engines produce byte-identical bodies, so a forced-engine request
// must safely hit a body another engine cached: X-Engine reports "cache",
// the bytes are the first build's, and ?explain=1 splices its report
// after the cache so it cannot poison the shared entry.
func TestCacheKeyEngineless(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 3})
	pts := datagen.Points(datagen.Clustered, 500, geom.NewRect(0, 0, 1000, 1000), 13)
	if _, err := sys.LoadPoints("pts", pts, sindex.STRPlus); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(sys, serve.Config{CacheSize: 64, Planner: serve.PlannerAuto})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(q string) (string, http.Header) {
		t.Helper()
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", q, resp.StatusCode, body)
		}
		return string(body), resp.Header
	}

	const query = "/rangequery?file=pts&rect=100,100,700,700"
	first, h := get(query + "&engine=mapreduce")
	if h.Get("X-Cache") != "miss" || h.Get("X-Engine") != "mapreduce" {
		t.Fatalf("first request: X-Cache=%q X-Engine=%q, want miss/mapreduce", h.Get("X-Cache"), h.Get("X-Engine"))
	}
	for _, engine := range []string{"local", "sharded", "auto"} {
		body, h := get(query + "&engine=" + engine)
		if h.Get("X-Cache") != "hit" {
			t.Fatalf("engine=%s: X-Cache=%q, want hit — the engine leaked into the cache key", engine, h.Get("X-Cache"))
		}
		if h.Get("X-Engine") != "cache" {
			t.Fatalf("engine=%s: X-Engine=%q, want cache", engine, h.Get("X-Engine"))
		}
		if body != first {
			t.Fatalf("engine=%s: cached body diverged from the mapreduce build", engine)
		}
	}

	// Explain splices post-cache: the explained hit is the cached body
	// with `,"explain":{...}}` grafted onto its final brace — the shared
	// entry itself stays plain.
	explained, h := get(query + "&engine=sharded&explain=1")
	if h.Get("X-Cache") != "hit" {
		t.Fatalf("explained request: X-Cache=%q, want hit", h.Get("X-Cache"))
	}
	prefix := strings.TrimSuffix(strings.TrimSuffix(first, "\n"), "}") + `,"explain":`
	if !strings.HasPrefix(explained, prefix) || !strings.HasSuffix(strings.TrimSuffix(explained, "\n"), "}") {
		t.Fatalf("explain was not spliced onto the cached body:\n%.300q", explained)
	}
	plain, _ := get(query)
	if plain != first {
		t.Fatal("the explained hit poisoned the cached entry")
	}
}

// TestShardedEpochInterleaving races waves of concurrent sharded queries
// — scattering to worker tiers — against a replacement of the queried file
// in the middle of each wave. Every response must match, byte for byte,
// the MapReduce-engine oracle of the generation the wave began with or of
// the one it publishes; under -race this exercises the
// pin/exec/heartbeat-drop interleavings across process-simulated workers.
func TestShardedEpochInterleaving(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 1024, Workers: 4, Seed: 9})
	area := geom.NewRect(0, 0, 1000, 1000)
	base := datagen.Points(datagen.Clustered, 600, area, 31)
	load := func(extra int) error {
		pts := append([]geom.Point{}, base...)
		for i := 0; i < extra; i++ {
			pts = append(pts, geom.Pt(float64(i)+0.25, float64(i)+0.75))
		}
		_, err := sys.LoadPoints("pts", pts, sindex.STR)
		return err
	}
	if err := load(0); err != nil {
		t.Fatal(err)
	}
	_, stop := startServeWorkers(t, sys, 2)
	defer stop()

	srv := serve.New(sys, serve.Config{CacheSize: -1, Planner: serve.PlannerSharded, MaxInFlight: 4, QueueDepth: 1024, JobDeadline: 30 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// The oracle: tier off, forced MapReduce, same system. With the tier
	// off it installs no epoch hook, so it cannot steal the sharded
	// server's invalidation path.
	ots := httptest.NewServer(serve.New(sys, serve.Config{CacheSize: -1, MemTierBytes: -1, Planner: serve.PlannerMapReduce, MaxInFlight: 4, QueueDepth: 1024, JobDeadline: 30 * time.Second}).Handler())
	defer ots.Close()

	queries := []string{
		"/rangequery?file=pts&rect=0,0,400,400",
		"/rangequery?file=pts&rect=600,600,1000,1000",
		"/rangequery?file=pts&rect=0,600,400,1000",
		"/knn?file=pts&point=500,500&k=7",
	}
	oracleNow := func() map[string]string {
		oracle := map[string]string{}
		for _, q := range queries {
			oracle[q] = getBody(t, ots.URL+q)
		}
		return oracle
	}
	before := oracleNow()
	for wave := 0; wave < 3; wave++ {
		const repeats = 4
		var wg sync.WaitGroup
		errs := make(chan error, len(queries)*repeats+1)
		answers := make(chan [2]string, len(queries)*repeats)
		for r := 0; r < repeats; r++ {
			for _, q := range queries {
				wg.Add(1)
				go func(q string) {
					defer wg.Done()
					resp, err := http.Get(ts.URL + q)
					if err != nil {
						errs <- err
						return
					}
					defer resp.Body.Close()
					body, err := io.ReadAll(resp.Body)
					if err != nil || resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("wave %d %s: status %d, %v", wave, q, resp.StatusCode, err)
						return
					}
					answers <- [2]string{q, string(body)}
				}(q)
			}
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
		after := oracleNow()
		for a := range answers {
			if q, body := a[0], a[1]; body != before[q] && body != after[q] {
				t.Errorf("wave %d: %s diverged from both generations' oracles", wave, q)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		before = after
	}
}

// TestExplainAgreesAcrossEngines: every engine drives the same plan, so
// they report the same partition accounting for the same query, including
// a kNN over an overlapping index (STR), which always needs round 2.
func TestExplainAgreesAcrossEngines(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 7})
	area := geom.NewRect(0, 0, 1000, 1000)
	if _, err := sys.LoadPoints("pts", datagen.Points(datagen.Clustered, 3000, area, 5), sindex.STR); err != nil {
		t.Fatal(err)
	}
	_, stop := startServeWorkers(t, sys, 2)
	defer stop()
	srv := serve.New(sys, serve.Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type explain struct {
		Engine            string `json:"engine"`
		PartitionsTotal   int    `json:"partitions_total"`
		PartitionsScanned int    `json:"partitions_scanned"`
		PartitionsPruned  int    `json:"partitions_pruned"`
	}
	run := func(path, engine string) explain {
		var body struct {
			Explain explain `json:"explain"`
		}
		raw := getBody(t, ts.URL+path+"&explain=1&engine="+engine)
		if err := json.Unmarshal([]byte(raw), &body); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if body.Explain.Engine != engine {
			t.Fatalf("%s: served by %q, want %q", path, body.Explain.Engine, engine)
		}
		body.Explain.Engine = ""
		return body.Explain
	}
	for _, path := range []string{
		"/rangequery?file=pts&rect=300,300,420,380",
		"/knn?file=pts&point=500,500&k=25",
	} {
		local := run(path, serve.PlannerLocal)
		sharded := run(path, serve.PlannerSharded)
		mr := run(path, serve.PlannerMapReduce)
		if local != sharded || local != mr {
			t.Errorf("%s:\n  local     %+v\n  sharded   %+v\n  mapreduce %+v", path, local, sharded, mr)
		}
		if local.PartitionsScanned+local.PartitionsPruned != local.PartitionsTotal {
			t.Errorf("%s: explain %+v: want scanned+pruned == total", path, local)
		}
	}
}

// TestShardedReplyReuse: range replies come from one pool on both ends —
// the master decodes into them, each worker writes its stream into one
// and the server releases it once answered — so decoding and writing
// must set every field: a reply that carried a large stream with merge
// keys and is reused for a keyless one, or for one with no match, must
// not keep the large one's keys or bytes. The whole-file query calls both
// workers (two streams, merged over keys), the sliver one worker (a lone
// stream, keyless) and matches nothing, the medium one lands in between.
// Two sharded clients run them in opposite orders, and a third runs them
// on the local engine, so replies cross between queries, workers, ends of
// the call and the master's own call; every body must equal the MapReduce
// engine's byte for byte. A fourth client cancels its sharded requests at
// staggered moments, so the replies of cancelled and half-answered calls
// go back to the pool among the others.
func TestShardedReplyReuse(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 7})
	pts := datagen.Points(datagen.Uniform, 1200, geom.NewRect(0, 0, 1000, 1000), 5)
	if _, err := sys.LoadPoints("pts", pts, sindex.STRPlus); err != nil {
		t.Fatal(err)
	}
	_, stop := startServeWorkers(t, sys, 2)
	defer stop()
	srv := serve.New(sys, serve.Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A sliver beside a point: inside its partition, holding nothing.
	x, y := pts[0].X+0.001, pts[0].Y+0.001
	queries := []string{
		"/rangequery?file=pts&rect=0,0,1000,1000",
		fmt.Sprintf("/rangequery?file=pts&rect=%v,%v,%v,%v", x, y, x+0.0001, y+0.0001),
		"/rangequery?file=pts&rect=100,100,900,500",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = getBody(t, ts.URL+q+"&engine=mapreduce")
	}
	if !strings.Contains(want[1], `"count":0,`) {
		t.Fatalf("the sliver query matched points: %.120q", want[1])
	}
	type explain struct {
		Explain struct {
			Scanned int `json:"partitions_scanned"`
			Remote  int `json:"shard_remote"`
			Calls   int `json:"shard_calls"`
		} `json:"explain"`
	}
	var whole, sliver explain
	for q, e := range map[string]*explain{queries[0]: &whole, queries[1]: &sliver} {
		if err := json.Unmarshal([]byte(getBody(t, ts.URL+q+"&engine=sharded&explain=1")), e); err != nil {
			t.Fatal(err)
		}
	}
	if whole.Explain.Calls != 2 {
		t.Fatalf("the whole-file query made %d calls, want one to each worker (%+v)", whole.Explain.Calls, whole.Explain)
	}
	if sliver.Explain.Scanned == 0 || sliver.Explain.Remote == 0 || sliver.Explain.Calls != 1 {
		t.Fatalf("the sliver query is not one call to one worker (%+v): no empty lone stream crosses the wire", sliver.Explain)
	}
	// sync.Pool may drop a reply at any time (and does, randomly, under
	// -race): enough rounds that reuse is certain. The third client runs
	// the local engine, whose master call writes into the same pool, so
	// the master's in-process replies and the workers' cross.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 12; round++ {
			for i, q := range queries {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(time.Duration((round*len(queries)+i)%12)*50*time.Microsecond, cancel)
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q+"&engine=sharded", nil).WithContext(ctx))
				cancel()
				if rec.Code == http.StatusOK && rec.Body.String() != want[i] {
					errs <- fmt.Errorf("cancelling client round %d %s: an answered body diverges from the mapreduce engine's", round, q)
					return
				}
			}
		}
	}()
	for client, engine := range []string{"sharded", "sharded", "local"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 12; round++ {
				for j := range queries {
					i := j
					if client == 1 {
						i = len(queries) - 1 - j
					}
					got, err := getBodyErr(ts.URL + queries[i] + "&engine=" + engine)
					if err == nil && got != want[i] {
						err = fmt.Errorf("%s body diverges from the mapreduce engine's\n got %.160q\nwant %.160q", engine, got, want[i])
					}
					if err != nil {
						errs <- fmt.Errorf("client %d round %d %s: %v", client, round, queries[i], err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
