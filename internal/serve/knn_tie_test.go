package serve_test

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/serve"
	"spatialhadoop/internal/sindex"
)

// tieOracle is the brute-force kNN under the candidate order, written out
// here rather than borrowed from ops: distance, then cmp.Compare on X and
// on Y, then the coordinates' bit patterns (-0 before +0).
func tieOracle(pts []geom.Point, q geom.Point, k int) []geom.Point {
	all := slices.Clone(pts)
	bits := func(v float64) int64 { return int64(math.Float64bits(v)) }
	slices.SortFunc(all, func(a, b geom.Point) int {
		return cmp.Or(cmp.Compare(math.Hypot(a.X-q.X, a.Y-q.Y), math.Hypot(b.X-q.X, b.Y-q.Y)),
			cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y),
			cmp.Compare(bits(a.X), bits(b.X)), cmp.Compare(bits(a.Y), bits(b.Y)))
	})
	return all[:min(k, len(all))]
}

// samePoints compares bit for bit, so -0 and +0 differ.
func samePoints(a, b []geom.Point) bool {
	return slices.EqualFunc(a, b, func(p, q geom.Point) bool {
		return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
	})
}

// TestKNNTiesBreakByPoint: points equally far from q rank by the point —
// X, then Y, then sign — in every engine. (-6, 8) and (-8, 6) are both 10
// from the origin; ordered by record text "-6,8" came first, ordered by
// point (-8, 6) does. The job engine in process, and the local, sharded and
// MapReduce engines behind /knn, must answer the brute-force oracle, the
// three bodies byte for byte alike.
func TestKNNTiesBreakByPoint(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		ties []geom.Point
		k    int
	}{
		{"text vs point", []geom.Point{{X: -6, Y: 8}, {X: -8, Y: 6}}, 1},
		{"signed zero", []geom.Point{{X: 0, Y: 5}, {X: 5, Y: 0}, {X: 5, Y: negZero}, {X: negZero, Y: 5}}, 3},
		{"duplicates", []geom.Point{{X: -6, Y: 8}, {X: -6, Y: 8}, {X: -8, Y: 6}, {X: -8, Y: 6}}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Filler far from q spreads the file over several partitions.
			pts := append(datagen.Points(datagen.Uniform, 600, geom.NewRect(100, 100, 1000, 1000), 3), tc.ties...)
			sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 7})
			if _, err := sys.LoadPoints("pts", pts, sindex.Grid); err != nil {
				t.Fatal(err)
			}
			q := geom.Pt(0, 0)
			want := tieOracle(pts, q, tc.k)
			if !samePoints(want[:1], tieOracle(tc.ties, q, 1)) {
				t.Fatalf("oracle's first answer %v is not a tie point", want[0])
			}

			job, _, err := ops.KNN(sys, "pts", q, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(job, want) {
				t.Errorf("job engine: %v, want %v", job, want)
			}

			_, stop := startServeWorkers(t, sys, 2)
			defer stop()
			ts := httptest.NewServer(serve.New(sys, serve.Config{CacheSize: -1}).Handler())
			defer ts.Close()
			bodies := map[string]string{}
			for _, engine := range []string{serve.PlannerLocal, serve.PlannerSharded, serve.PlannerMapReduce} {
				resp, err := http.Get(fmt.Sprintf("%s/knn?file=pts&point=0,0&k=%d&engine=%s", ts.URL, tc.k, engine))
				if err != nil {
					t.Fatal(err)
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Engine") != engine {
					t.Fatalf("%s: status %d by %q, %v: %s", engine, resp.StatusCode, resp.Header.Get("X-Engine"), err, raw)
				}
				var body struct {
					Neighbors []geom.Point `json:"neighbors"`
				}
				if err := json.Unmarshal(raw, &body); err != nil {
					t.Fatalf("%s: %v: %s", engine, err, raw)
				}
				if !samePoints(body.Neighbors, want) {
					t.Errorf("%s: /knn answered %v, want %v", engine, body.Neighbors, want)
				}
				bodies[engine] = string(raw)
			}
			if bodies[serve.PlannerLocal] != bodies[serve.PlannerSharded] || bodies[serve.PlannerLocal] != bodies[serve.PlannerMapReduce] {
				t.Errorf("bodies differ across engines:\n local     %s\n sharded   %s\n mapreduce %s",
					bodies[serve.PlannerLocal], bodies[serve.PlannerSharded], bodies[serve.PlannerMapReduce])
			}
		})
	}
}
