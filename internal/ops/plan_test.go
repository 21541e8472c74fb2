package ops

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
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
	gi     *sindex.GlobalIndex
}

func newPlanFixture() *planFixture {
	fx := &planFixture{
		pts: map[string][]geom.Point{
			"c0": {geom.Pt(10, 10), geom.Pt(12, 10), geom.Pt(14, 10), geom.Pt(45, 25)},
			"c1": {geom.Pt(90, 25), geom.Pt(95, 40)},
			"c2": {geom.Pt(10, 55), geom.Pt(20, 90)},
			"c3": {geom.Pt(60, 60), geom.Pt(90, 90)},
		},
		gi: &sindex.GlobalIndex{Space: geom.NewRect(0, 0, 100, 100)},
	}
	for i, mbr := range []geom.Rect{
		geom.NewRect(0, 0, 50, 50), geom.NewRect(50, 0, 100, 50),
		geom.NewRect(0, 50, 50, 100), geom.NewRect(50, 50, 100, 100),
	} {
		cell := sindex.Cell{ID: i, Boundary: mbr}
		cell.Content = geom.RectOf(fx.pts[cell.Key()])
		fx.gi.Cells = append(fx.gi.Cells, cell)
		fx.splits = append(fx.splits, &mapreduce.Split{Partition: cell.Key(), MBR: mbr, ContentMBR: cell.Content})
	}
	return fx
}

// exactFilter is the bitmap filter with every partition refined, as after
// the memory tier pinned the whole file.
func (fx *planFixture) exactFilter() *sindex.SFilter {
	sf := sindex.NewSFilter(fx.gi, 0)
	for key, pts := range fx.pts {
		sf.Refine(key, pts)
	}
	return sf
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
			cands = append(cands, KNNCandidate{Dist: math.Hypot(p.X-d.q.X, p.Y-d.q.Y), Rec: geomio.EncodePoint(p)})
		}
		d.plan.Searched(sp, len(pts), len(pts))
	}
	d.rounds = append(d.rounds, keys)
	return cands, nil
}

// bruteKNN is the oracle: the k nearest over every point, in the canonical
// (dist, record) order.
func (fx *planFixture) bruteKNN(q geom.Point, k int) []geom.Point {
	var all []KNNCandidate
	for _, pts := range fx.pts {
		for _, p := range pts {
			all = append(all, KNNCandidate{Dist: math.Hypot(p.X-q.X, p.Y-q.Y), Rec: geomio.EncodePoint(p)})
		}
	}
	sort.Slice(all, func(i, j int) bool { return LessKNNCandidate(all[i], all[j]) })
	out := []geom.Point{}
	for _, c := range all[:min(k, len(all))] {
		p, _ := geomio.DecodePoint(c.Rec)
		out = append(out, p)
	}
	return out
}

func TestPlanKNNRounds(t *testing.T) {
	all := []string{"c0", "c1", "c2", "c3"}
	cases := []struct {
		name     string
		disjoint bool
		filter   bool
		q        geom.Point
		k        int
		rounds   [][]string // partitions each round fetched
		stats    LocalStats
	}{
		{
			name: "disjoint partition owns the circle: one round", disjoint: true, filter: true,
			q: geom.Pt(11, 10), k: 2,
			rounds: [][]string{{"c0"}},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 1, PartitionsPruned: 3, Rounds: 1},
		},
		{
			name: "overlapping technique forces round 2", disjoint: false, filter: true,
			q: geom.Pt(11, 10), k: 2,
			rounds: [][]string{{"c0"}, {"c0"}},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 1, PartitionsPruned: 3, SFilterHits: 1, Rounds: 2},
		},
		{
			name: "q outside every cover: round 1 is everything, no round 2", disjoint: true, filter: true,
			q: geom.Pt(-10, -10), k: 3,
			rounds: [][]string{all},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 4, Rounds: 1},
		},
		{
			name: "k >= n: radius 0 round 2 keeps everything unprobed", disjoint: true, filter: true,
			q: geom.Pt(11, 10), k: 12,
			rounds: [][]string{{"c0"}, all},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 4, Rounds: 2},
		},
		{
			// The circle (radius 33.5 around (44,25)) reaches all four
			// covers, but the bitmaps prove c1 and c3 empty inside it.
			name: "sFilter skips counted once", disjoint: true, filter: true,
			q: geom.Pt(44, 25), k: 2,
			rounds: [][]string{{"c0"}, {"c0", "c2"}},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 2, PartitionsPruned: 2, SFilterHits: 2, SFilterSkips: 2, Rounds: 2},
		},
		{
			name: "no bitmap filter: geometry alone keeps the circle's reach", disjoint: true,
			q: geom.Pt(44, 25), k: 2,
			rounds: [][]string{{"c0"}, all},
			stats:  LocalStats{PartitionsTotal: 4, PartitionsConsulted: 4, Rounds: 2},
		},
		{
			name: "k = 0", disjoint: true, filter: true,
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
			if tc.filter {
				plan.sf = fx.exactFilter()
			}
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

// TestPlanRangeCandidates: the range filter step prunes on cover geometry,
// then on the bitmap, counting each skipped partition once.
func TestPlanRangeCandidates(t *testing.T) {
	fx := newPlanFixture()
	keys := func(sel Selection) []string {
		var out []string
		for _, sp := range sel.Kept {
			out = append(out, sp.Partition)
		}
		return out
	}
	// The query reaches c0 and c1, but c1's records sit at x >= 90.
	query := geom.NewRect(40, 20, 70, 30)
	if sel := RangeCandidates(fx.splits, nil, query); !reflect.DeepEqual(keys(sel), []string{"c0", "c1"}) || sel.SFilterHits+sel.SFilterSkips != 0 {
		t.Errorf("geometry only: kept %v, %+v", keys(sel), sel)
	}
	sel := RangeCandidates(fx.splits, fx.exactFilter(), query)
	if !reflect.DeepEqual(keys(sel), []string{"c0"}) || sel.SFilterHits != 1 || sel.SFilterSkips != 1 {
		t.Errorf("with bitmap: kept %v, hits %d skips %d", keys(sel), sel.SFilterHits, sel.SFilterSkips)
	}

	plan := &Plan{f: &Indexed{Name: "f", Splits: fx.splits}, sf: fx.exactFilter(), hot: sindex.NewHotness()}
	if _, err := plan.Range(context.Background(), query); err != nil {
		t.Fatal(err)
	}
	if want := (LocalStats{PartitionsTotal: 4, PartitionsConsulted: 1, PartitionsPruned: 3, SFilterHits: 1, SFilterSkips: 1, Rounds: 1}); plan.Stats != want {
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
