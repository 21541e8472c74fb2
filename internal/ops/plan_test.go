package ops

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
)

// planFixture is a 2x2 tiling of [0,100]^2 held entirely in memory: the
// plan under test sees only split metadata, and the fake driver answers
// fragments from the per-partition point lists — no file system, no
// cluster, no engine.
type planFixture struct {
	splits []*mapreduce.Split
	pts    map[string][]geom.Point
}

func newPlanFixture() *planFixture {
	fx := &planFixture{
		pts: map[string][]geom.Point{
			"c0": {geom.Pt(10, 10), geom.Pt(12, 10), geom.Pt(14, 10), geom.Pt(45, 25)},
			"c1": {geom.Pt(90, 25), geom.Pt(95, 40)},
			"c2": {geom.Pt(10, 55), geom.Pt(20, 90)},
			"c3": {geom.Pt(60, 60), geom.Pt(90, 90)},
		},
	}
	for i, mbr := range []geom.Rect{
		geom.NewRect(0, 0, 50, 50), geom.NewRect(50, 0, 100, 50),
		geom.NewRect(0, 50, 50, 100), geom.NewRect(50, 50, 100, 100),
	} {
		cell := sindex.Cell{ID: i, Boundary: mbr}
		fx.splits = append(fx.splits, &mapreduce.Split{Partition: cell.Key(), MBR: mbr, ContentMBR: geom.RectOf(fx.pts[cell.Key()])})
	}
	return fx
}

// fakeDriver answers each kept partition with all of its points as
// candidates (a tie-complete superset of its k nearest) and logs which
// partitions every round asked for.
type fakeDriver struct {
	fx     *planFixture
	plan   *Plan
	q      geom.Point
	rounds [][]string
}

func (d *fakeDriver) fetch(_ context.Context, kept []*mapreduce.Split) ([]KNNCandidate, error) {
	var keys []string
	var cands []KNNCandidate
	for _, sp := range kept {
		keys = append(keys, sp.Partition)
		pts := d.fx.pts[sp.Partition]
		for _, p := range pts {
			cands = append(cands, KNNCandidate{Dist: math.Hypot(p.X-d.q.X, p.Y-d.q.Y), P: p})
		}
		d.plan.Searched(sp, len(pts), len(pts))
	}
	d.rounds = append(d.rounds, keys)
	return cands, nil
}

// bruteKNN is the oracle: the k nearest over every point, in the canonical
// (dist, point) order.
func (fx *planFixture) bruteKNN(q geom.Point, k int) []geom.Point {
	var all []KNNCandidate
	for _, pts := range fx.pts {
		for _, p := range pts {
			all = append(all, KNNCandidate{Dist: math.Hypot(p.X-q.X, p.Y-q.Y), P: p})
		}
	}
	slices.SortFunc(all, compareCandidates)
	out := []geom.Point{}
	for _, c := range all[:min(k, len(all))] {
		out = append(out, c.P)
	}
	return out
}

func TestPlanKNNRounds(t *testing.T) {
	all := []string{"c0", "c1", "c2", "c3"}
	cases := []struct {
		name     string
		disjoint bool
		q        geom.Point
		k        int
		rounds   [][]string // partitions each round fetched
		stats    LocalStats
	}{
		{
			name: "disjoint partition owns the circle: one round", disjoint: true,
			q: geom.Pt(11, 10), k: 2,
			rounds: [][]string{{"c0"}},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 1, PartitionsPruned: 3, Rounds: 1},
		},
		{
			// Round 2 reaches no cover but c0's: the circle (radius 1) sits
			// in c0's content MBR.
			name: "overlapping technique forces round 2", disjoint: false,
			q: geom.Pt(11, 10), k: 2,
			rounds: [][]string{{"c0"}, {"c0"}},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 1, PartitionsPruned: 3, Rounds: 2},
		},
		{
			name: "q outside every cover: round 1 is everything, no round 2", disjoint: true,
			q: geom.Pt(-10, -10), k: 3,
			rounds: [][]string{all},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 4, Rounds: 1},
		},
		{
			name: "k >= n: radius 0 round 2 keeps everything unprobed", disjoint: true,
			q: geom.Pt(11, 10), k: 12,
			rounds: [][]string{{"c0"}, all},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 4, Rounds: 2},
		},
		{
			// The circle (radius 30 around (44,10)) reaches c1's boundary
			// 6 away, but c1's cover — its content MBR (90,25)-(95,40),
			// which holds every record — lies 48 away, and c2's and c3's
			// farther still.
			name: "round 2 prunes covers outside the circle", disjoint: true,
			q: geom.Pt(44, 10), k: 2,
			rounds: [][]string{{"c0"}, {"c0"}},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 1, PartitionsPruned: 3, Rounds: 2},
		},
		{
			// Radius 33.5 around (44,25) meets every boundary but no
			// other content MBR: c1's is 46 away, c2's 38.4, c3's 38.5.
			name: "no bitmap filter: geometry alone keeps the circle's reach", disjoint: true,
			q: geom.Pt(44, 25), k: 2,
			rounds: [][]string{{"c0"}, {"c0"}},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 1, PartitionsPruned: 3, Rounds: 2},
		},
		{
			// Home c1's one candidate (90,25) sets radius 30.4 around
			// (60,20). c0's content MBR lies 15 away and holds the answer,
			// (45,25) at 15.8, so round 2 keeps c0; c3's boundary lies 30
			// away but its content MBR 40, so round 2 prunes it.
			name: "round 2 keeps a neighbour whose content lies in the circle", disjoint: true,
			q: geom.Pt(60, 20), k: 1,
			rounds: [][]string{{"c1"}, {"c0", "c1"}},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 2, PartitionsPruned: 2, Rounds: 2},
		},
		{
			name: "k = 0", disjoint: true,
			q: geom.Pt(11, 10), k: 0,
			rounds: [][]string{{"c0"}},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 1, PartitionsPruned: 3, Rounds: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newPlanFixture()
			hot := sindex.NewHotness()
			plan := &Plan{f: &Indexed{Name: "f", Splits: fx.splits, Disjoint: tc.disjoint}, hot: hot}
			drv := &fakeDriver{fx: fx, plan: plan, q: tc.q}
			got, err := plan.KNN(context.Background(), tc.q, tc.k, drv.fetch)
			if err != nil {
				t.Fatal(err)
			}
			if want := fx.bruteKNN(tc.q, tc.k); !reflect.DeepEqual(append([]geom.Point{}, got...), want) {
				t.Errorf("points = %v, want %v", got, want)
			}
			if !reflect.DeepEqual(drv.rounds, tc.rounds) {
				t.Errorf("rounds fetched %v, want %v", drv.rounds, tc.rounds)
			}
			if plan.Stats != tc.stats {
				t.Errorf("stats = %+v, want %+v", plan.Stats, tc.stats)
			}
			// Every round scans or prunes every partition exactly once.
			var scans, prunes int64
			for _, fh := range hot.Report() {
				scans, prunes = scans+fh.Scans, prunes+fh.Prunes
			}
			fetched := 0
			for _, r := range tc.rounds {
				fetched += len(r)
			}
			if int(scans) != fetched || int(scans+prunes) != len(tc.rounds)*len(fx.splits) {
				t.Errorf("hotness: %d scans + %d prunes over %d rounds, want %d scans", scans, prunes, len(tc.rounds), fetched)
			}
		})
	}
}

// TestPlanRangeCandidates: the range filter step keeps the splits whose
// cover meets the query, in split order, and the plan counts the rest as
// pruned.
func TestPlanRangeCandidates(t *testing.T) {
	fx := newPlanFixture()
	var keys []string
	// The query reaches c0's and c1's boundaries but only c0's cover:
	// c1's content MBR starts at x = 90.
	query := geom.NewRect(40, 20, 70, 30)
	for _, sp := range RangeCandidates(fx.splits, query) {
		keys = append(keys, sp.Partition)
	}
	if !reflect.DeepEqual(keys, []string{"c0"}) {
		t.Errorf("kept %v, want [c0]", keys)
	}

	plan := &Plan{f: &Indexed{Name: "f", Splits: fx.splits}, hot: sindex.NewHotness()}
	if _, err := plan.Range(context.Background(), query); err != nil {
		t.Fatal(err)
	}
	if want := (LocalStats{PartitionsTotal: 4, PartitionsConsulted: 1, PartitionsPruned: 3, Rounds: 1}); plan.Stats != want {
		t.Errorf("range stats = %+v, want %+v", plan.Stats, want)
	}
}

// TestPlanCancelled: a cancelled context stops the plan before a round —
// the driver is never asked for a fragment and nothing is recorded.
func TestPlanCancelled(t *testing.T) {
	fx := newPlanFixture()
	hot := sindex.NewHotness()
	plan := &Plan{f: &Indexed{Name: "f", Splits: fx.splits, Disjoint: true}, hot: hot}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	drv := &fakeDriver{fx: fx, plan: plan, q: geom.Pt(11, 10)}
	if _, err := plan.KNN(ctx, drv.q, 2, drv.fetch); !errors.Is(err, context.Canceled) {
		t.Errorf("knn err = %v, want context.Canceled", err)
	}
	if _, err := plan.Range(ctx, geom.NewRect(0, 0, 10, 10)); !errors.Is(err, context.Canceled) {
		t.Errorf("range err = %v, want context.Canceled", err)
	}
	if len(drv.rounds) != 0 || plan.Stats != (LocalStats{}) || len(hot.Report()) != 0 {
		t.Errorf("cancelled plan ran: rounds %v stats %+v heat %v", drv.rounds, plan.Stats, hot.Report())
	}

	// Cancelled between the rounds: round 2 is never fetched.
	ctx, cancel = context.WithCancel(context.Background())
	drv = &fakeDriver{fx: fx, plan: plan, q: geom.Pt(44, 25)}
	_, err := plan.KNN(ctx, drv.q, 2, func(ctx context.Context, kept []*mapreduce.Split) ([]KNNCandidate, error) {
		defer cancel()
		return drv.fetch(ctx, kept)
	})
	if !errors.Is(err, context.Canceled) || len(drv.rounds) != 1 {
		t.Errorf("cancel after round 1: err %v, rounds %v", err, drv.rounds)
	}
}

// TestPlanJoin: the join's filter step pairs the partitions whose covers
// meet — not their boundaries — left-major, and counts and heats both
// inputs' partitions.
func TestPlanJoin(t *testing.T) {
	fx := newPlanFixture()
	right := &Indexed{Name: "g"}
	for i, r := range []struct{ mbr, content geom.Rect }{
		// r0's boundary meets c0's and c1's, its content c0's only.
		{geom.NewRect(40, 0, 60, 50), geom.NewRect(40, 20, 60, 30)},
		{geom.NewRect(80, 80, 100, 100), geom.NewRect(85, 85, 99, 99)},
		{geom.NewRect(0, 90, 10, 100), geom.NewRect(0, 95, 5, 99)},
	} {
		right.Splits = append(right.Splits, &mapreduce.Split{Partition: fmt.Sprintf("r%d", i), MBR: r.mbr, ContentMBR: r.content})
	}
	hot := sindex.NewHotness()
	plan := &Plan{f: &Indexed{Name: "f", Splits: fx.splits}, hot: hot}
	pairs, err := plan.Join(context.Background(), right)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pairs {
		got = append(got, p.Partition)
	}
	if want := []string{"c0*r0", "c3*r1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs %v, want %v", got, want)
	}
	l, r := fx.splits[3], right.Splits[1]
	if p := pairs[1]; p.Tag != joinTag(l.MBR, r.MBR) || p.MBR != l.MBR.Union(r.MBR) || !slices.Equal(p.Blocks, l.Blocks) || !slices.Equal(p.Extra, r.Blocks) {
		t.Errorf("pair %s = %+v, want both sides' blocks and boundaries", p.Partition, p)
	}
	if want := (LocalStats{PartitionsTotal: 7, PartitionsConsulted: 4, PartitionsPruned: 3, Rounds: 1}); plan.Stats != want {
		t.Errorf("join stats = %+v, want %+v", plan.Stats, want)
	}
	heat := map[string]string{}
	for _, fh := range hot.Report() {
		for _, ph := range fh.Partitions {
			heat[fh.File+"/"+ph.Partition] = fmt.Sprintf("%d/%d", ph.Scans, ph.Prunes)
		}
	}
	want := map[string]string{
		"f/c0": "1/0", "f/c1": "0/1", "f/c2": "0/1", "f/c3": "1/0",
		"g/r0": "1/0", "g/r1": "1/0", "g/r2": "0/1",
	}
	if !reflect.DeepEqual(heat, want) {
		t.Errorf("scans/prunes %v, want %v", heat, want)
	}
}
