package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/sindex"
)

// genCorpus loads generation g of a test file: a fixed base plus g
// sentinel points on a diagonal no base point sits on, so a body's count
// names the generation that answered.
func genCorpus(t testing.TB, sys *core.System, file string, base []geom.Point, g int) {
	pts := append([]geom.Point{}, base...)
	for i := 0; i < g; i++ {
		pts = append(pts, geom.Pt(float64(i)+0.25, float64(i)+0.75))
	}
	if _, err := sys.LoadPoints(file, pts, sindex.STR); err != nil {
		t.Fatal(err)
	}
}

// TestGenerationFollowsReplacement: the file handle is resolved once per
// generation, so replacing a live file (LoadPoints over an existing name)
// must make the very next request — local or sharded — plan from the new
// index, and must free the old generation's handle: one entry per file
// however many generations went by, and none once the file is deleted.
func TestGenerationFollowsReplacement(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 1024, Workers: 4, Seed: 9})
	base := datagen.Points(datagen.Clustered, 400, geom.NewRect(0, 0, 1000, 1000), 31)
	srv := New(sys, Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	oracle := httptest.NewServer(New(sys, Config{CacheSize: -1, MemTierBytes: -1, Planner: PlannerMapReduce}).Handler())
	defer oracle.Close()

	const query = "/rangequery?file=pts&rect=0,0,1000,1000"
	for g := 0; g <= 50; g++ {
		genCorpus(t, sys, "pts", base, g)
		if n := len(srv.mt.gens); n != 0 {
			t.Fatalf("generation %d: %d handles survived the replacement", g, n)
		}
		_, want, _ := fetch(t, oracle.Client(), oracle.URL+query)
		if !bytes.Contains(want, []byte(fmt.Sprintf(`"count":%d,`, len(base)+g))) {
			t.Fatalf("generation %d: oracle does not count %d points: %.80q", g, len(base)+g, want)
		}
		for _, engine := range []string{PlannerLocal, PlannerSharded, PlannerLocal} {
			code, body, _ := fetch(t, ts.Client(), ts.URL+query+"&engine="+engine)
			if code != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("generation %d engine %s: status %d, body diverges from this generation's oracle: %.80q", g, engine, code, body)
			}
		}
		live, err := sys.FS().Open("pts")
		if err != nil {
			t.Fatal(err)
		}
		src := srv.mt.gens["pts"]
		if len(srv.mt.gens) != 1 || src == nil || src.f != live {
			t.Fatalf("generation %d: handles %v, want exactly the live generation (epoch %d)", g, srv.mt.gens, live.Epoch())
		}
		if again := srv.mt.Source(live); again != src {
			t.Fatalf("generation %d: the handle was resolved again within one generation", g)
		}
	}

	if parts, _ := srv.mt.Stats(); parts == 0 {
		t.Fatal("the last generation pinned nothing; the delete step below would prove nothing")
	}
	sys.FS().Delete("pts")
	if parts, bytes := srv.mt.Stats(); len(srv.mt.gens) != 0 || parts != 0 || bytes != 0 {
		t.Fatalf("deleted file keeps %d handles and %d pinned partitions (%d bytes)", len(srv.mt.gens), parts, bytes)
	}
	for _, engine := range []string{PlannerLocal, PlannerSharded, PlannerMapReduce} {
		if code, body, _ := fetch(t, ts.Client(), ts.URL+query+"&engine="+engine); code != http.StatusNotFound {
			t.Fatalf("deleted file, engine %s: status %d (%.80q), want 404", engine, code, body)
		}
	}
}

// TestGenerationReplaceRace replaces a file while local and sharded clients
// query that same file: each response must carry, whole, the generation
// that was live when the wave began or the one the wave publishes. Run
// under -race this exercises resolve/publish/invalidate on the handle map.
func TestGenerationReplaceRace(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 1024, Workers: 4, Seed: 9})
	base := datagen.Points(datagen.Clustered, 300, geom.NewRect(0, 0, 1000, 1000), 31)
	genCorpus(t, sys, "pts", base, 0)
	srv := New(sys, Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for wave := 0; wave < 10; wave++ {
		before := []byte(fmt.Sprintf(`"count":%d,`, len(base)+wave))
		after := []byte(fmt.Sprintf(`"count":%d,`, len(base)+wave+1))
		var wg sync.WaitGroup
		for _, engine := range []string{PlannerLocal, PlannerSharded, PlannerLocal, PlannerSharded} {
			wg.Add(1)
			go func(engine string) {
				defer wg.Done()
				get := func(path string) (int, []byte) {
					resp, err := ts.Client().Get(ts.URL + path + "&file=pts&engine=" + engine)
					if err != nil {
						t.Error(err)
						return 0, nil
					}
					defer resp.Body.Close()
					body, err := io.ReadAll(resp.Body)
					if err != nil {
						t.Error(err)
					}
					return resp.StatusCode, body
				}
				for i := 0; i < 6; i++ {
					if code, body := get("/rangequery?rect=0,0,1000,1000"); code != http.StatusOK || !bytes.Contains(body, before) && !bytes.Contains(body, after) {
						t.Errorf("wave %d by %s: status %d, body %.80q, want %s or %s", wave, engine, code, body, before, after)
					}
					if code, body := get("/knn?point=500,500&k=7"); code != http.StatusOK {
						t.Errorf("wave %d kNN by %s: status %d: %.80q", wave, engine, code, body)
					}
				}
			}(engine)
		}
		genCorpus(t, sys, "pts", base, wave+1)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		// A request that held the replaced generation may have left its
		// handle behind; the next request displaces it with the live one.
		if code, body, _ := fetch(t, ts.Client(), ts.URL+"/rangequery?rect=0,0,1000,1000&file=pts&engine=local"); code != http.StatusOK || !bytes.Contains(body, after) {
			t.Fatalf("wave %d: after the replacement status %d, body %.80q, want %s", wave, code, body, after)
		}
		live, _ := sys.FS().Open("pts")
		srv.mt.mu.Lock()
		n, src := len(srv.mt.gens), srv.mt.gens["pts"]
		srv.mt.mu.Unlock()
		if n != 1 || src == nil || src.f != live {
			t.Fatalf("wave %d: %d handles, pts → %v, want exactly the live generation (epoch %d)", wave, n, src, live.Epoch())
		}
	}
}

// TestReplaceWhileQuery replaces one file forty times while a local, a
// sharded and a MapReduce client query it. Every response is 200 and
// byte-identical to one generation's oracle body — never a mixture, never a
// partial file, never a 404 between two generations — and no client sees
// the generations go backwards.
func TestReplaceWhileQuery(t *testing.T) {
	const generations = 40
	cfg := core.Config{BlockSize: 1024, Workers: 4, Seed: 9}
	base := datagen.Points(datagen.Clustered, 300, geom.NewRect(0, 0, 1000, 1000), 31)
	queries := []string{
		"/rangequery?file=pts&rect=0,0,1000,1000", // its count names the generation
		"/rangequery?file=pts&rect=0,0,30,30",
		"/knn?file=pts&point=20.5,20.5&k=9",
	}

	// Oracle bodies per generation, from a system nobody else touches.
	oracleSys := core.New(cfg)
	ots := httptest.NewServer(New(oracleSys, Config{CacheSize: -1, MemTierBytes: -1, Planner: PlannerMapReduce}).Handler())
	defer ots.Close()
	oracle := make([]map[string]int, len(queries)) // query → body → first generation answering so
	for qi := range oracle {
		oracle[qi] = map[string]int{}
	}
	for g := 0; g <= generations; g++ {
		genCorpus(t, oracleSys, "pts", base, g)
		for qi, q := range queries {
			code, body, _ := fetch(t, ots.Client(), ots.URL+q)
			if code != http.StatusOK {
				t.Fatalf("oracle generation %d %s: status %d: %.80q", g, q, code, body)
			}
			if _, seen := oracle[qi][string(body)]; !seen {
				oracle[qi][string(body)] = g
			}
		}
	}
	if len(oracle[0]) != generations+1 {
		t.Fatalf("the full-range query tells %d of %d generations apart", len(oracle[0]), generations+1)
	}

	sys := core.New(cfg)
	genCorpus(t, sys, "pts", base, 0)
	ts := httptest.NewServer(New(sys, Config{CacheSize: -1}).Handler())
	defer ts.Close()
	stop := make(chan struct{})
	var answered atomic.Int64
	var wg sync.WaitGroup
	engines := []string{PlannerLocal, PlannerSharded, PlannerMapReduce}
	for _, engine := range engines {
		wg.Add(1)
		go func(engine string) {
			defer wg.Done()
			last := make([]int, len(queries))
			for {
				for qi, q := range queries {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := ts.Client().Get(ts.URL + q + "&engine=" + engine)
					if err != nil {
						t.Error(err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					g, known := oracle[qi][string(body)]
					if err != nil || resp.StatusCode != http.StatusOK || !known {
						t.Errorf("%s %s: status %d (%v), body is no generation's: %.120q", engine, q, resp.StatusCode, err, body)
						return
					}
					if g < last[qi] {
						t.Errorf("%s %s: generation %d answered after generation %d", engine, q, g, last[qi])
						return
					}
					last[qi] = g
					answered.Add(1)
				}
			}
		}(engine)
	}
	// The clients never pause; the writer lets a few answers through
	// between publications so every generation meets requests in flight.
	for g := 1; g <= generations && !t.Failed(); g++ {
		genCorpus(t, sys, "pts", base, g)
		for seen := answered.Load(); answered.Load() < seen+int64(len(engines)) && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
}

// TestGenerationHeapMissingTierless: what has no handle keeps its old
// behaviour. A heap file falls through to MapReduce under every engine, a
// missing file is 404 under every engine, neither leaves an entry behind —
// and a server without a memory tier (so without the epoch hook) still
// serves the sharded engine and follows a replacement, opening per request.
func TestGenerationHeapMissingTierless(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 1024, Workers: 4, Seed: 9})
	base := datagen.Points(datagen.Clustered, 300, geom.NewRect(0, 0, 1000, 1000), 31)
	genCorpus(t, sys, "pts", base, 0)
	if err := sys.LoadPointsHeap("heap", base); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(ts *httptest.Server, path string) (int, []byte, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readAll(t, resp), resp.Header.Get("X-Engine")
	}
	for _, engine := range []string{PlannerAuto, PlannerLocal, PlannerSharded} {
		for _, op := range []string{"/rangequery?rect=0,0,1000,1000", "/knn?point=500,500&k=5"} {
			if code, body, eng := get(ts, op+"&file=heap&engine="+engine); code != http.StatusOK || eng != PlannerMapReduce {
				t.Errorf("%s heap file, engine=%s: status %d by %q (%.80q), want 200 by mapreduce", op, engine, code, eng, body)
			}
			if code, body, _ := get(ts, op+"&file=nope&engine="+engine); code != http.StatusNotFound {
				t.Errorf("%s missing file, engine=%s: status %d (%.80q), want 404", op, engine, code, body)
			}
		}
	}
	if len(srv.mt.gens) != 0 {
		t.Errorf("heap and missing files left handles behind: %v", srv.mt.gens)
	}

	tierless := New(sys, Config{CacheSize: -1, MemTierBytes: -1, Planner: PlannerSharded})
	tts := httptest.NewServer(tierless.Handler())
	defer tts.Close()
	for g := 0; g <= 2; g++ {
		genCorpus(t, sys, "pts", base, g)
		want := []byte(fmt.Sprintf(`"count":%d,`, len(base)+g))
		if code, body, eng := get(tts, "/rangequery?file=pts&rect=0,0,1000,1000"); code != http.StatusOK || eng != PlannerSharded || !bytes.Contains(body, want) {
			t.Errorf("tierless generation %d: status %d by %q, body %.80q, want %s by sharded", g, code, eng, body, want)
		}
		if code, _, eng := get(tts, "/knn?file=pts&point=500,500&k=5"); code != http.StatusOK || eng != PlannerSharded {
			t.Errorf("tierless generation %d kNN: status %d by %q", g, code, eng)
		}
	}
}
