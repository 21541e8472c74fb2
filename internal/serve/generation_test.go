package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
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
// however many generations went by.
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
		src := srv.mt.gens["pts"]
		if len(srv.mt.gens) != 1 || src == nil || src.epoch != sys.FS().FileEpoch("pts") {
			t.Fatalf("generation %d: handles %v, want exactly the live epoch %d", g, srv.mt.gens, sys.FS().FileEpoch("pts"))
		}
		if again, err := srv.generation("pts", src.epoch); err != nil || again != src {
			t.Fatalf("generation %d: the handle was resolved again within one generation (%v)", g, err)
		}
	}
}

// TestGenerationReplaceRace interleaves replacements with local and
// sharded queries. The file system does not synchronise a reader with a
// writer of the same file, so the two sides alternate files: while one
// file is replaced — every record stamping an epoch and firing the hook —
// four clients query the other, and each response must carry exactly its
// file's current generation. Run under -race this exercises
// resolve/publish/invalidate on the handle map.
func TestGenerationReplaceRace(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 1024, Workers: 4, Seed: 9})
	base := datagen.Points(datagen.Clustered, 300, geom.NewRect(0, 0, 1000, 1000), 31)
	files := []string{"a", "b"}
	gen := map[string]int{}
	load := func(file string) {
		gen[file]++
		genCorpus(t, sys, file, base, gen[file])
	}
	load("a")
	load("b")
	srv := New(sys, Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for wave := 0; wave < 10; wave++ {
		written, queried := files[wave%2], files[1-wave%2]
		want := []byte(fmt.Sprintf(`"count":%d,`, len(base)+gen[queried]))
		var wg sync.WaitGroup
		for _, engine := range []string{PlannerLocal, PlannerSharded, PlannerLocal, PlannerSharded} {
			wg.Add(1)
			go func(engine string) {
				defer wg.Done()
				get := func(path string) (int, []byte) {
					resp, err := ts.Client().Get(ts.URL + path + "&file=" + queried + "&engine=" + engine)
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
					if code, body := get("/rangequery?rect=0,0,1000,1000"); code != http.StatusOK || !bytes.Contains(body, want) {
						t.Errorf("wave %d %s by %s: status %d, body %.80q, want %s", wave, queried, engine, code, body, want)
					}
					if code, body := get("/knn?point=500,500&k=7"); code != http.StatusOK {
						t.Errorf("wave %d %s kNN by %s: status %d: %.80q", wave, queried, engine, code, body)
					}
				}
			}(engine)
		}
		load(written)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		srv.mt.mu.Lock()
		q, w := srv.mt.gens[queried], srv.mt.gens[written]
		srv.mt.mu.Unlock()
		if q == nil || q.epoch != sys.FS().FileEpoch(queried) || w != nil {
			t.Fatalf("wave %d: handles queried=%v written=%v, want the queried file's live epoch %d and none for the replaced file", wave, q, w, sys.FS().FileEpoch(queried))
		}
	}
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
