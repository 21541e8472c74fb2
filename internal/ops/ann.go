package ops

import (
	"fmt"
	"slices"
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// ANNResult pairs a point with its nearest neighbour.
type ANNResult struct {
	Point, Neighbor geom.Point
	Dist            float64
}

// AllNearestNeighbors computes, for every point of a disjointly indexed
// file, its nearest other point (the ANN join of the SpatialHadoop
// literature). Round one answers each point within its own partition and
// finalizes the points whose nearest-neighbour circle stays inside the
// partition; round two ships each remaining "uncertain" point to exactly
// the partitions its circle reaches and keeps the global minimum.
func AllNearestNeighbors(sys *core.System, file string) ([]ANNResult, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return nil, nil, err
	}
	if f.Index == nil || !f.Index.Disjoint() {
		return nil, nil, fmt.Errorf("ops: ann requires a disjoint spatial index on %q", file)
	}
	splits := f.Splits()

	// ---- Round 1: local nearest neighbours, finalize interior points ----
	out1 := file + ".ann.r1"
	job1 := &mapreduce.Job{Name: "ann-local", Kind: "ann-local", Splits: splits, Output: out1}
	rep1, err := sys.Cluster().Run(job1)
	if err != nil {
		return nil, nil, err
	}

	recs, err := sys.FS().ReadAll(out1)
	if err != nil {
		return nil, nil, err
	}
	var final []ANNResult
	// Uncertain points routed to every foreign partition their circle
	// touches, broadcast per partition through the job configuration.
	route := make(map[string][]string)
	var uncertain []ANNResult
	var uncertainHome []string
	for _, rec := range recs {
		switch {
		case strings.HasPrefix(rec, "F|"):
			r, err := decodeANN(strings.TrimPrefix(rec, "F|"))
			if err != nil {
				return nil, nil, err
			}
			final = append(final, r)
		case strings.HasPrefix(rec, "U|"):
			body := strings.TrimPrefix(rec, "U|")
			i := strings.IndexByte(body, '|')
			if i < 0 {
				return nil, nil, fmt.Errorf("ops: bad ann record %q", rec)
			}
			r, err := decodeANN(body[i+1:])
			if err != nil {
				return nil, nil, err
			}
			uncertain = append(uncertain, r)
			uncertainHome = append(uncertainHome, body[:i])
		default:
			return nil, nil, fmt.Errorf("ops: bad ann record %q", rec)
		}
	}
	if len(uncertain) == 0 {
		sortANN(final)
		return final, rep1, nil
	}
	for ui, r := range uncertain {
		for _, s := range splits {
			if s.Partition == uncertainHome[ui] {
				continue
			}
			if r.Dist >= 0 && s.Cover().MinDistPoint(r.Point) > r.Dist {
				continue
			}
			route[s.Partition] = append(route[s.Partition], encodeANN(r))
		}
	}

	// ---- Round 2: probe foreign partitions, take the global minimum ----
	conf := make(map[string]string, len(route))
	for k, v := range route {
		conf[k] = strings.Join(v, ";")
	}
	out2 := file + ".ann.r2"
	job2 := &mapreduce.Job{
		Name:   "ann-probe",
		Kind:   "ann-probe",
		Splits: splits,
		Conf:   conf,
		Filter: func(in []*mapreduce.Split) []*mapreduce.Split {
			var keep []*mapreduce.Split
			for _, s := range in {
				if _, ok := route[s.Partition]; ok {
					keep = append(keep, s)
				}
			}
			return keep
		},
		Output: out2,
	}
	rep2, err := sys.Cluster().Run(job2)
	if err != nil {
		return nil, nil, err
	}
	foreign := make(map[geom.Point]ANNResult)
	recs2, err := sys.FS().ReadAll(out2)
	if err != nil {
		return nil, nil, err
	}
	for _, rec := range recs2 {
		r, err := decodeANN(rec)
		if err != nil {
			return nil, nil, err
		}
		if fr, ok := foreign[r.Point]; !ok || nearer(r, fr) {
			foreign[r.Point] = r
		}
	}
	for _, r := range uncertain {
		if fr, ok := foreign[r.Point]; ok && (r.Dist < 0 || nearer(fr, r)) {
			r = fr
		}
		if r.Dist >= 0 {
			final = append(final, r)
		}
	}
	sortANN(final)
	return final, rep2, nil
}

// annLocalMap is round one's map body: answer each point within its own
// partition and finalize those whose nearest-neighbour circle stays inside.
func annLocalMap(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
	pts, err := sortedPoints(split.Blocks)
	if err != nil {
		return err
	}
	for _, p := range pts {
		best, ok := localNN(pts, p)
		// The uncertainty radius: a foreign point can be closer, or tie
		// and rank first, only if the best circle reaches past the
		// partition or onto a max edge, which the next cell owns.
		if ok && split.MBR.Buffer(-best.Dist).ContainsPointExclusive(p) {
			ctx.Write("F|" + encodeANN(ANNResult{Point: p, Neighbor: best.P, Dist: best.Dist}))
			ctx.Inc("ann.final.round1", 1)
			continue
		}
		rec := ANNResult{Point: p, Dist: -1}
		if ok {
			rec.Neighbor, rec.Dist = best.P, best.Dist
		}
		ctx.Write("U|" + split.Partition + "|" + encodeANN(rec))
	}
	return nil
}

// annProbeMap is round two's map body: the uncertain points routed to this
// partition arrive in Conf under its key; each is answered here, and the
// master keeps the nearest answer per point.
func annProbeMap(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
	probes := ctx.Config(split.Partition)
	if probes == "" {
		return nil
	}
	pts, err := sortedPoints(split.Blocks)
	if err != nil {
		return err
	}
	for _, enc := range strings.Split(probes, ";") {
		r, err := decodeANN(enc)
		if err != nil {
			return err
		}
		if best, ok := localNN(pts, r.Point); ok {
			ctx.Write(encodeANN(ANNResult{Point: r.Point, Neighbor: best.P, Dist: best.Dist}))
		}
	}
	return nil
}

// localNN finds the nearest point to p in pts other than p itself (one
// coincident copy is skipped; another still counts, at distance zero),
// ties broken by the kNN candidate order.
func localNN(pts SortedPoints, p geom.Point) (best KNNCandidate, ok bool) {
	selfSkipped := false
	for _, n := range pts.NearestWithTies(p, 2) {
		c := KNNCandidate{Dist: n.dist, P: pts[n.id]}
		if c.P.Equal(p) && !selfSkipped {
			selfSkipped = true
			continue
		}
		if !ok || compareCandidates(c, best) < 0 {
			best, ok = c, true
		}
	}
	return best, ok
}

// nearer orders two answers for one point as their neighbours rank as kNN
// candidates.
func nearer(a, b ANNResult) bool {
	return compareCandidates(KNNCandidate{Dist: a.Dist, P: a.Neighbor}, KNNCandidate{Dist: b.Dist, P: b.Neighbor}) < 0
}

func encodeANN(r ANNResult) string {
	return geomio.EncodePoint(r.Point) + " " + geomio.EncodePoint(r.Neighbor) + " " +
		fmt.Sprintf("%.17g", r.Dist)
}

func decodeANN(s string) (ANNResult, error) {
	parts := strings.Fields(s)
	if len(parts) != 3 {
		return ANNResult{}, fmt.Errorf("ops: bad ann encoding %q", s)
	}
	p, err := geomio.DecodePoint(parts[0])
	if err != nil {
		return ANNResult{}, err
	}
	nb, err := geomio.DecodePoint(parts[1])
	if err != nil {
		return ANNResult{}, err
	}
	var d float64
	if _, err := fmt.Sscanf(parts[2], "%g", &d); err != nil {
		return ANNResult{}, err
	}
	return ANNResult{Point: p, Neighbor: nb, Dist: d}, nil
}

func sortANN(rs []ANNResult) {
	slices.SortFunc(rs, func(a, b ANNResult) int { return a.Point.Compare(b.Point) })
}
