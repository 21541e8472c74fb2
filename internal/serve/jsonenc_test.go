package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/ops"
)

// The response bodies as encoding/json would render them: the mirror
// structs every hand-rolled encoder is pinned to, byte for byte.
type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type rangeResponse struct {
	File   string      `json:"file"`
	Rect   string      `json:"rect"`
	Count  int         `json:"count"`
	Points []pointJSON `json:"points"`
}

type knnResponse struct {
	File      string         `json:"file"`
	Point     string         `json:"point"`
	K         int            `json:"k"`
	Count     int            `json:"count"`
	Neighbors []neighborJSON `json:"neighbors"`
}

// TestAppendJSONFloatMatchesEncodingJSON: the hand-rolled float encoder
// must agree with encoding/json bit for bit across magnitude regimes —
// the cache stores bodies, so any divergence would surface as a phantom
// miss or a broken oracle comparison.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	fixed := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.125, 123.456, -9999.875,
		1e-6, 9.999e-7, 1e-7, -1e-7, 1e20, 1e21, -2.5e21, 1e300, -1e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewSource(42))
	vals := fixed
	for i := 0; i < 10_000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		vals = append(vals, f)
	}
	// Lattice-quantized values like the generators produce.
	for i := 0; i < 1000; i++ {
		vals = append(vals, math.Round(rng.Float64()*8_000_000)/8)
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendJSONFloat(nil, f)
		if err != nil {
			t.Fatalf("%v (bits %x): %v", f, math.Float64bits(f), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("float %v (bits %x): encoder %q, encoding/json %q",
				f, math.Float64bits(f), got, want)
		}
	}
	if _, err := appendJSONFloat(nil, math.Inf(1)); err == nil {
		t.Error("encoding +Inf should error like encoding/json")
	}
	if _, err := appendJSONFloat(nil, math.NaN()); err == nil {
		t.Error("encoding NaN should error like encoding/json")
	}
}

// TestEncodeBodiesMatchEncodingJSON: whole range and kNN bodies from the
// fast encoders must be byte-identical to marshalBody over the mirror
// structs, including the empty-result and escaping-fallback cases.
func TestEncodeBodiesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randPts := func(n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = geom.Pt(math.Round(rng.Float64()*8000)/8, rng.NormFloat64()*1e5)
		}
		return out
	}
	files := []string{"pts", "p-1_2.bin", "", "a<b&c>d", `quo"te\slash`, "uni\u00e9", "ctl\n"}
	for _, file := range files {
		for _, n := range []int{0, 1, 7, 300} {
			pts := randPts(n)
			rect := canonicalRect(geom.NewRect(0, 0, 1000, 1000))
			want := rangeResponse{File: file, Rect: rect, Count: len(pts), Points: make([]pointJSON, len(pts))}
			for i, p := range pts {
				want.Points[i] = pointJSON{X: p.X, Y: p.Y}
			}
			wantBody, err := marshalBody(want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := encodeRangeBody(file, rect, pts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBody) {
				t.Fatalf("range body file=%q n=%d:\n got %q\nwant %q", file, n, got, wantBody)
			}

			nbs := make([]neighborJSON, len(pts))
			for i, p := range pts {
				nbs[i] = neighborJSON{X: p.X, Y: p.Y, Dist: math.Hypot(p.X, p.Y)}
			}
			wantK, err := marshalBody(knnResponse{File: file, Point: "1,2", K: n + 1, Count: len(nbs), Neighbors: nbs})
			if err != nil {
				t.Fatal(err)
			}
			gotK, err := encodeKNNBody(file, "1,2", n+1, nbs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotK, wantK) {
				t.Fatalf("knn body file=%q n=%d:\n got %q\nwant %q", file, n, gotK, wantK)
			}
		}
	}
}

// pinHeap pins pts as one memory-resident partition: a one-block heap file
// is a single split, and PinSplit does not care where a split came from.
func pinHeap(t *testing.T, sys *core.System, name string, pts []geom.Point) *ops.LocalPartition {
	t.Helper()
	if err := sys.LoadPointsHeap(name, pts); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Splits()) != 1 {
		t.Fatalf("%s: %d splits, want one block", name, len(f.Splits()))
	}
	part, err := ops.PinSplit(f.Splits()[0])
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// checkRangeBodies renders one range answer over pinned partitions every
// way the server can — the sharded engine's stream merge, the local
// engine's fragment merge, the sort-then-format slow path — and requires
// each to equal encoding/json over the mirror struct.
func checkRangeBodies(t *testing.T, file string, parts []*ops.LocalPartition, q geom.Rect) {
	t.Helper()
	canon := canonicalRect(q)
	var (
		matches []ops.LocalMatch
		streams []shardFrag
		pts     []geom.Point
	)
	for _, part := range parts {
		ids := part.Tree.Search(q, nil)
		slices.Sort(ids)
		if len(ids) > 0 {
			matches = append(matches, ops.LocalMatch{Part: part, IDs: ids})
		}
		for _, id := range ids {
			pts = append(pts, part.Pts[id])
		}
		// Every partition ships a stream, matches or not: empty streams
		// are part of a real gather.
		st, err := ops.PartitionRangePoints(part, q)
		if err != nil {
			t.Fatal(err)
		}
		if int(st.Records) != len(part.Recs) || len(st.Keys) != 2*len(ids) {
			t.Fatalf("rect %s: stream of %d keys over %d records, want %d over %d", canon, len(st.Keys), st.Records, 2*len(ids), len(part.Recs))
		}
		streams = append(streams, shardFrag{stream: &st, matches: len(st.Keys) / 2})
	}
	out := map[string][]byte{"streams": encodeRangeBodyStreams(file, canon, streams)}
	var err error
	if out["matches"], err = encodeRangeBodyMatches(file, canon, matches); err != nil {
		t.Fatal(err)
	}
	geom.SortPointsXY(pts)
	if out["sorted"], err = encodeRangeBody(file, canon, pts); err != nil {
		t.Fatal(err)
	}
	resp := rangeResponse{File: file, Rect: canon, Count: len(pts), Points: make([]pointJSON, len(pts))}
	for i, p := range pts {
		resp.Points[i] = pointJSON{X: p.X, Y: p.Y}
	}
	if out["marshal"], err = marshalBody(resp); err != nil {
		t.Fatal(err)
	}
	for name, body := range out {
		if !bytes.Equal(body, out["marshal"]) {
			t.Fatalf("file %q rect %s: %s body diverges from encoding/json\n got %.300q\nwant %.300q", file, canon, name, body, out["marshal"])
		}
	}
}

// TestEncodeRangeBodyMatchesMergesIdentically pins both fragment-merge
// fast paths — the local engine's (LocalMatch IDs into the arena) and the
// sharded engine's (shipped streams) — to the sort-then-encode slow path
// and to encoding/json over real pinned partitions: for every query,
// merging the partitions' pre-encoded sorted streams must produce the
// same bytes as materializing, globally sorting and float-formatting the
// points.
func TestEncodeRangeBodyMatchesMergesIdentically(t *testing.T) {
	sys := newServeSystem(t)
	f, err := sys.Open("pts1")
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*ops.LocalPartition, 0, len(f.Splits()))
	for _, sp := range f.Splits() {
		part, err := ops.PinSplit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if part.Frag == nil {
			t.Fatalf("partition %s: no fragments built", part.Key)
		}
		if !slices.IsSortedFunc(part.Pts, func(a, b geom.Point) int {
			switch {
			case a.X < b.X:
				return -1
			case a.X > b.X:
				return 1
			case a.Y < b.Y:
				return -1
			case a.Y > b.Y:
				return 1
			}
			return 0
		}) {
			t.Fatalf("partition %s: pinned points not canonically sorted", part.Key)
		}
		parts = append(parts, part)
	}
	rng := rand.New(rand.NewSource(5))
	rects := []geom.Rect{
		geom.NewRect(0, 0, 10_000, 10_000), // everything: full merge
		geom.NewRect(0, 0, 0, 0),           // nothing
	}
	for i := 0; i < 30; i++ {
		x, y := rng.Float64()*9000, rng.Float64()*9000
		rects = append(rects, geom.NewRect(x, y, x+rng.Float64()*4000, y+rng.Float64()*4000))
	}
	for _, q := range rects {
		checkRangeBodies(t, "pts1", parts, q)
	}
	// A file name that needs JSON escaping takes encoding/json's escaper
	// in every encoder.
	checkRangeBodies(t, "a<b&\"c\"\u00e9\n", parts, rects[0])
}

// TestEncodeRangeBodyStreamsRandomized drives the same four-way identity
// over randomized partitions built to hit the merge's edges: coordinates
// from a small lattice, so streams tie across partitions on X and on
// (X, Y); negative and exponent-form values (1e-7, 1e21); partitions with
// no match (empty streams); a single partition (the whole body is one
// copy); and a partition without a fragment arena, whose matches both
// merges format at query time.
func TestEncodeRangeBodyStreamsRandomized(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 1 << 20, Workers: 2, Seed: 1})
	rng := rand.New(rand.NewSource(17))
	lattice := []float64{-2.5e21, -1234.5, -1e-7, 0, 1e-7, 0.125, 3, 3.5, 1e6, 1e21}
	for trial := 0; trial < 60; trial++ {
		parts := make([]*ops.LocalPartition, 1+trial%5)
		for i := range parts {
			pts := make([]geom.Point, 1+rng.Intn(40))
			for j := range pts {
				pts[j] = geom.Pt(lattice[rng.Intn(len(lattice))], lattice[rng.Intn(len(lattice))])
			}
			parts[i] = pinHeap(t, sys, fmt.Sprintf("t%d.p%d", trial, i), pts)
			if parts[i].Frag == nil {
				t.Fatal("finite points pinned without fragments")
			}
		}
		if trial%3 == 0 { // a Frag-less partition among (or instead of) the others
			parts[0].Frag, parts[0].FragOff = nil, nil
		}
		corner := func() float64 { return lattice[rng.Intn(len(lattice))] }
		for _, q := range []geom.Rect{
			geom.NewRect(-1e22, -1e22, 1e22, 1e22),
			geom.NewRect(corner(), corner(), corner(), corner()),
			geom.NewRect(corner(), -1e22, corner(), 1e22),
			geom.NewRect(2, 2, 2.5, 2.5), // between lattice values: every stream empty
		} {
			checkRangeBodies(t, "pts", parts, q)
		}
	}
}

// TestRangeStreamUnencodable: a partition without a fragment arena holds a
// coordinate JSON cannot carry; matching it fails both merges the way
// encoding/json fails the slow path, and not matching it costs nothing.
func TestRangeStreamUnencodable(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 1 << 20, Workers: 2, Seed: 1})
	part := pinHeap(t, sys, "inf", []geom.Point{geom.Pt(1, 1), geom.Pt(2, math.Inf(1))})
	if part.Frag != nil {
		t.Fatal("a partition holding +Inf built a fragment arena")
	}
	all := geom.NewRect(0, 0, 3, math.Inf(1))
	if _, err := ops.PartitionRangePoints(part, all); err == nil {
		t.Error("streaming a +Inf match succeeded")
	}
	if _, err := encodeRangeBodyMatches("inf", canonicalRect(all), []ops.LocalMatch{{Part: part, IDs: []int{0, 1}}}); err == nil {
		t.Error("merging a +Inf match succeeded")
	}
	checkRangeBodies(t, "inf", []*ops.LocalPartition{part}, geom.NewRect(0, 0, 3, 3))
}
