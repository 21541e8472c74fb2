package proptest

import (
	"math"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

// Case is one self-contained differential-check input: a dataset, a
// technique, the operation's query workload, and the seed/shape pedigree
// needed to print a replay line. A Case can be executed by any Check and
// minimized by Shrink; each Check builds a fresh system, runs its whole
// workload against the brute oracle and returns "" or a failure message.
type Case struct {
	Op      string
	Tech    sindex.Technique
	Shape   Shape
	Seed    int64
	Workers int
	// BlockSize overrides the DFS block size (0 = DefaultBlockSize). The
	// shrinker halves it when a failure persists at finer partition
	// granularity, because bugs that need multiple blocks to express can
	// then be exhibited with far fewer points.
	BlockSize int
	// Engine selects the execution engine (default EngineInProcess);
	// EngineRemote runs the case's systems under an in-test master with
	// RemoteWorkers goroutine workers and a replicated data plane.
	Engine Engine
	// RemoteWorkers is the remote engine's pool size (0 = DefaultRemoteWorkers).
	RemoteWorkers int

	Pts   []geom.Point  // point-file operations
	Left  []geom.Region // region range / join left / union input
	Right []geom.Region // join right

	Queries       []geom.Rect // range / range-regions workload
	KNNs          []KNNQuery  // knn workload
	Extents       []geom.Rect // plot workload
	Width, Height int         // plot raster size
}

func (c Case) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return DefaultWorkers
}

func (c Case) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return DefaultBlockSize
}

// System stands up the fresh system this case's checks run against.
// Under EngineRemote it also attaches a live master/worker runtime,
// tracked for teardown by CloseEngines.
func (c Case) System() *core.System {
	sys := NewSystemBlock(c.workers(), c.blockSize())
	n := c.RemoteWorkers
	if n <= 0 {
		n = DefaultRemoteWorkers
	}
	switch c.Engine {
	case EngineRemote:
		trackEngine(StartRemoteRuntime(sys, n))
	case EngineSharded:
		trackEngine(StartShardedRuntime(sys, n, 2))
	}
	return sys
}

// Check runs one distributed operation against its brute-force oracle.
type Check func(Case) string

// Checks is the operation catalogue: every entry is swept over every
// technique (with rotating dataset shapes) by the short-mode matrix and
// over the full shape cross product by the soak rounds.
var Checks = map[string]Check{
	"range":         CheckRange,
	"range-regions": CheckRangeRegions,
	"knn":           CheckKNN,
	"join":          CheckJoin,
	"ann":           CheckANN,
	"plot":          CheckPlot,
	"skyline":       CheckSkyline,
	"hull":          CheckHullOp,
	"closest-pair":  CheckClosestPair,
	"farthest-pair": CheckFarthestPair,
	"union":         CheckUnion,
	"serve-planner": CheckServePlanner,
	"serve-sharded": CheckServeSharded,
	"serve-replace": CheckReplaceWhileQuery,
}

// CheckOrder is the deterministic iteration order of Checks. New
// operations are appended at the END: the op index is packed into replay
// and fuzz-corpus seeds, so reordering would silently change what every
// archived seed decodes to.
var CheckOrder = []string{
	"range", "range-regions", "knn", "join", "ann", "plot",
	"skyline", "hull", "closest-pair", "farthest-pair", "union",
	"serve-planner", "serve-sharded", "serve-replace",
}

// loadPoints stands up a fresh system with the case's point file indexed
// under the case's technique.
func (c Case) loadPoints() (*core.System, string) {
	sys := c.System()
	if _, err := sys.LoadPoints("pts", c.Pts, c.Tech); err != nil {
		return nil, sprintf("load pts: %v", err)
	}
	return sys, ""
}

// CheckRange: distributed range query == linear scan, byte for byte, for
// every query rect in the workload.
func CheckRange(c Case) string {
	if len(c.Pts) == 0 {
		return ""
	}
	sys, msg := c.loadPoints()
	if msg != "" {
		return msg
	}
	for _, q := range c.Queries {
		got, _, err := ops.RangeQueryPoints(sys, "pts", q)
		if err != nil {
			return sprintf("range %v: %v", q, err)
		}
		want := OracleRange(c.Pts, q)
		if CanonPoints(got) != CanonPoints(want) {
			return sprintf("range %v: got %d points, oracle %d\n got: %q\nwant: %q",
				q, len(got), len(want), CanonPoints(got), CanonPoints(want))
		}
	}
	return ""
}

// CheckRangeRegions: distributed region range query (with reference-point
// dedup of replicated records) == linear MBR scan.
func CheckRangeRegions(c Case) string {
	if len(c.Left) == 0 {
		return ""
	}
	sys := c.System()
	if _, err := sys.LoadRegions("regs", c.Left, c.Tech); err != nil {
		return sprintf("load regs: %v", err)
	}
	for _, q := range c.Queries {
		got, _, err := ops.RangeQueryRegions(sys, "regs", q)
		if err != nil {
			return sprintf("range-regions %v: %v", q, err)
		}
		want := OracleRangeRegions(c.Left, q)
		if CanonStrings(encodeRegions(got)) != CanonStrings(want) {
			return sprintf("range-regions %v: got %d regions, oracle %d",
				q, len(got), len(want))
		}
	}
	return ""
}

// CheckKNN: distributed two-round kNN == deterministic-tie oracle, by
// count and distance multiset, for every (q, k) in the workload.
func CheckKNN(c Case) string {
	if len(c.Pts) == 0 {
		return ""
	}
	sys, msg := c.loadPoints()
	if msg != "" {
		return msg
	}
	for _, kq := range c.KNNs {
		got, _, err := ops.KNN(sys, "pts", kq.Q, kq.K)
		if err != nil {
			return sprintf("knn q=%v k=%d: %v", kq.Q, kq.K, err)
		}
		want := OracleKNN(c.Pts, kq.Q, kq.K)
		if msg := CompareKNN(got, want, kq.Q, c.Pts); msg != "" {
			return sprintf("knn q=%v k=%d: %s", kq.Q, kq.K, msg)
		}
	}
	return ""
}

// CheckJoin: distributed indexed join == quadratic nested loop, as exact
// record-pair sets.
func CheckJoin(c Case) string {
	if len(c.Left) == 0 || len(c.Right) == 0 {
		return ""
	}
	sys := c.System()
	if _, err := sys.LoadRegions("left", c.Left, c.Tech); err != nil {
		return sprintf("load left: %v", err)
	}
	if _, err := sys.LoadRegions("right", c.Right, c.Tech); err != nil {
		return sprintf("load right: %v", err)
	}
	got, _, err := ops.SpatialJoinIndexed(sys, "left", "right")
	if err != nil {
		return sprintf("join: %v", err)
	}
	gotCanon := CanonStrings(CanonJoinPairs(got))
	wantCanon := CanonStrings(OracleJoin(c.Left, c.Right))
	if gotCanon != wantCanon {
		return sprintf("join: got %d pairs, oracle set differs\n got: %q\nwant: %q",
			len(got), gotCanon, wantCanon)
	}
	return ""
}

// CheckANN: on disjoint indexes distributed ANN == O(n²) scan by distance;
// on overlapping indexes the op must refuse with an error.
func CheckANN(c Case) string {
	if len(c.Pts) == 0 {
		return ""
	}
	sys, msg := c.loadPoints()
	if msg != "" {
		return msg
	}
	got, _, err := ops.AllNearestNeighbors(sys, "pts")
	if !c.Tech.Disjoint() {
		if err == nil {
			return sprintf("ann on overlapping index %v unexpectedly succeeded", c.Tech)
		}
		return ""
	}
	if err != nil {
		return sprintf("ann: %v", err)
	}
	return CompareANN(got, OracleANN(c.Pts))
}

// CheckPlot: distributed plot raster == direct rasterization, byte for
// byte across the whole gray buffer, for every extent in the workload.
func CheckPlot(c Case) string {
	if len(c.Pts) == 0 {
		return ""
	}
	sys, msg := c.loadPoints()
	if msg != "" {
		return msg
	}
	w, h := c.Width, c.Height
	if w == 0 {
		w, h = 32, 32
	}
	for _, extent := range c.Extents {
		img, _, err := ops.Plot(sys, "pts", ops.PlotConfig{Width: w, Height: h, Extent: extent})
		if err != nil {
			return sprintf("plot %v: %v", extent, err)
		}
		want := OraclePlot(c.Pts, extent, w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if got := img.GrayAt(x, y).Y; got != want[y*w+x] {
					return sprintf("plot extent=%v %dx%d: pixel (%d,%d) = %d, oracle %d",
						extent, w, h, x, y, got, want[y*w+x])
				}
			}
		}
	}
	return ""
}

// CheckSkyline: distributed skyline (filter + output-sensitive variants)
// == O(n²) dominance scan.
func CheckSkyline(c Case) string {
	if len(c.Pts) == 0 {
		return ""
	}
	sys, msg := c.loadPoints()
	if msg != "" {
		return msg
	}
	want := CanonPoints(OracleSkyline(c.Pts))
	got, _, err := cg.SkylineSHadoop(sys, "pts")
	if err != nil {
		return sprintf("skyline: %v", err)
	}
	if CanonPoints(got) != want {
		return sprintf("skyline: got %q, oracle %q", CanonPoints(got), want)
	}
	osGot, _, err := cg.SkylineOutputSensitive(sys, "pts", true)
	if !c.Tech.Disjoint() {
		if err == nil {
			return sprintf("skyline-os on overlapping index %v unexpectedly succeeded", c.Tech)
		}
		return ""
	}
	if err != nil {
		return sprintf("skyline-os: %v", err)
	}
	if CanonPoints(osGot) != want {
		return sprintf("skyline-os: got %q, oracle %q", CanonPoints(osGot), want)
	}
	return ""
}

// CheckHullOp: distributed hulls (filtered and enhanced) equal the
// single-machine hull exactly, and independently satisfy the structural
// hull definition (convex ring of input points containing every input).
func CheckHullOp(c Case) string {
	if len(c.Pts) == 0 {
		return ""
	}
	sys, msg := c.loadPoints()
	if msg != "" {
		return msg
	}
	single := cg.ConvexHullSingle(c.Pts)
	for _, variant := range []struct {
		name string
		run  func() ([]geom.Point, error)
	}{
		{"hull", func() ([]geom.Point, error) { h, _, err := cg.ConvexHullSHadoop(sys, "pts"); return h, err }},
		{"hull-enhanced", func() ([]geom.Point, error) { h, _, err := cg.ConvexHullEnhanced(sys, "pts"); return h, err }},
	} {
		got, err := variant.run()
		if err != nil {
			return sprintf("%s: %v", variant.name, err)
		}
		if msg := CheckHull(got, c.Pts); msg != "" {
			return sprintf("%s: %s", variant.name, msg)
		}
		if CanonPoints(got) != CanonPoints(single) {
			return sprintf("%s: got %q, single-machine %q",
				variant.name, CanonPoints(got), CanonPoints(single))
		}
	}
	return ""
}

// CheckClosestPair: on disjoint indexes the distributed closest pair
// reports the true O(n²) minimum distance between two input points; on
// overlapping indexes the op must refuse.
func CheckClosestPair(c Case) string {
	if len(c.Pts) < 2 {
		return ""
	}
	sys, msg := c.loadPoints()
	if msg != "" {
		return msg
	}
	pair, _, err := cg.ClosestPairSHadoop(sys, "pts")
	if !c.Tech.Disjoint() {
		if err == nil {
			return sprintf("closest-pair on overlapping index %v unexpectedly succeeded", c.Tech)
		}
		return ""
	}
	if err != nil {
		return sprintf("closest-pair: %v", err)
	}
	want, _ := OracleClosestPairDist(c.Pts)
	return comparePair("closest-pair", pair, want, c.Pts)
}

// CheckFarthestPair: the distributed farthest pair reports the true O(n²)
// maximum distance (any indexed technique).
func CheckFarthestPair(c Case) string {
	if len(c.Pts) < 2 {
		return ""
	}
	sys, msg := c.loadPoints()
	if msg != "" {
		return msg
	}
	pair, _, err := cg.FarthestPairSHadoop(sys, "pts")
	if err != nil {
		return sprintf("farthest-pair: %v", err)
	}
	want, _ := OracleFarthestPairDist(c.Pts)
	return comparePair("farthest-pair", pair, want, c.Pts)
}

// comparePair validates a reported point pair: both endpoints must be
// input points, their mutual distance must match the reported distance,
// and the reported distance must equal the oracle extreme (within last-ulp
// tolerance for the Hypot vs Sqrt route difference).
func comparePair(op string, pair geom.PointPair, want float64, pts []geom.Point) string {
	if !ContainsAll(pts, []geom.Point{pair.P}) || !ContainsAll(pts, []geom.Point{pair.Q}) {
		return sprintf("%s: endpoints %v-%v are not input points", op, pair.P, pair.Q)
	}
	if d := pair.P.Dist(pair.Q); !approxEq(d, pair.Dist) {
		return sprintf("%s: reported dist %.17g but endpoints are %.17g apart", op, pair.Dist, d)
	}
	if !approxEq(pair.Dist, want) {
		return sprintf("%s: dist %.17g, oracle %.17g", op, pair.Dist, want)
	}
	return ""
}

// CheckUnion: the distributed union boundary matches the single-machine
// union (equal total boundary length, mutual midpoint coverage) and agrees
// with input-derived membership probes. On disjoint indexes the enhanced
// map-only variant is additionally held to the same boundary.
func CheckUnion(c Case) string {
	if len(c.Left) == 0 {
		return ""
	}
	sys := c.System()
	if _, err := sys.LoadRegions("regs", c.Left, c.Tech); err != nil {
		return sprintf("load regs: %v", err)
	}
	polys := make([]geom.Polygon, len(c.Left))
	for i, rg := range c.Left {
		polys[i] = rg.Rings[0]
	}
	_, singleSegs := cg.UnionSingle(polys)

	region, _, err := cg.UnionSHadoop(sys, "regs")
	if err != nil {
		return sprintf("union: %v", err)
	}
	if msg := compareBoundary("union", region.Edges(), singleSegs); msg != "" {
		return msg
	}
	for _, probe := range OracleUnion(c.Left, c.Seed) {
		if got := region.ContainsPoint(probe.P); got != probe.Inside {
			return sprintf("union: probe %v inside=%v, oracle %v", probe.P, got, probe.Inside)
		}
	}

	segs, _, err := cg.UnionEnhanced(sys, "regs")
	if !c.Tech.Disjoint() {
		if err == nil {
			return sprintf("union-enhanced on overlapping index %v unexpectedly succeeded", c.Tech)
		}
		return ""
	}
	if err != nil {
		return sprintf("union-enhanced: %v", err)
	}
	return compareBoundary("union-enhanced", segs, singleSegs)
}

// compareBoundary checks two union boundaries for geometric equality: same
// total length and every segment midpoint of each lies on the other
// (robust to different segment splitting of the same polyline).
func compareBoundary(op string, got, want []geom.Segment) string {
	lg, lw := geom.TotalLength(got), geom.TotalLength(want)
	if math.Abs(lg-lw) > 1e-6*math.Max(1, math.Max(lg, lw)) {
		return sprintf("%s: boundary length %.17g, single-machine %.17g", op, lg, lw)
	}
	for _, s := range got {
		if !geom.OnAnySegment(s.Midpoint(), want) {
			return sprintf("%s: segment %v not on single-machine boundary", op, s)
		}
	}
	for _, s := range want {
		if !geom.OnAnySegment(s.Midpoint(), got) {
			return sprintf("%s: single-machine segment %v missing from result", op, s)
		}
	}
	return ""
}

func encodeRegions(regions []geom.Region) []string {
	out := make([]string, len(regions))
	for i, rg := range regions {
		out[i] = geomio.EncodeRegion(rg)
	}
	return out
}
