package cg

import (
	"fmt"
	"math"
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// ClosestPairSingle is the single-machine divide-and-conquer baseline
// (paper §9).
func ClosestPairSingle(pts []geom.Point) (geom.PointPair, bool) {
	return geom.ClosestPair(pts)
}

// ClosestPairSHadoop computes the closest pair over a disjoint spatially
// indexed points file (paper §9.2): each map task finds its partition's
// local closest pair and forwards, besides the pair itself, only the
// points within delta of the partition boundary — the candidates that
// could pair with a point of a neighbouring cell. One reducer finds the
// global pair among the forwarded points.
func ClosestPairSHadoop(sys *core.System, file string) (geom.PointPair, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return geom.PointPair{}, nil, err
	}
	if f.Index == nil || !f.Index.Disjoint() {
		return geom.PointPair{}, nil, errNotDisjoint("closestpair", file)
	}
	out := file + ".closest.out"
	rep, err := sys.Cluster().Run(&mapreduce.Job{Name: "closestpair", Kind: "closestpair", Splits: f.Splits(), Output: out})
	if err != nil {
		return geom.PointPair{}, nil, err
	}
	return readPairOutput(sys, out, rep)
}

func closestPairMap(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
	pts, err := split.Points()
	if err != nil {
		return err
	}
	pair, ok := geom.ClosestPair(pts)
	if !ok {
		// 0 or 1 point: everything is a candidate.
		for _, p := range pts {
			ctx.Emit("1", geomio.EncodePoint(p))
			ctx.Inc(CounterIntermediatePoints, 1)
		}
		return nil
	}
	ctx.Emit("1", geomio.EncodePoint(pair.P))
	ctx.Emit("1", geomio.EncodePoint(pair.Q))
	ctx.Inc(CounterIntermediatePoints, 2)
	// Forward only points within delta of the boundary (paper Fig.
	// 19): any point deeper inside is closer to pair.P/pair.Q's
	// distance within its own cell than to any foreign point.
	inner := split.MBR.Inner(pair.Dist)
	for _, p := range pts {
		if p.Equal(pair.P) || p.Equal(pair.Q) {
			continue
		}
		if !inner.StrictlyContainsPoint(p) {
			ctx.Emit("1", geomio.EncodePoint(p))
			ctx.Inc(CounterIntermediatePoints, 1)
		}
	}
	return nil
}

func closestPairReduce(ctx *mapreduce.TaskContext, key string, values []string) error {
	pts, err := geomio.DecodePoints(values)
	if err != nil {
		return err
	}
	pair, ok := geom.ClosestPair(pts)
	if !ok {
		return nil
	}
	ctx.Write(geomio.EncodePoint(pair.P) + " " + geomio.EncodePoint(pair.Q))
	return nil
}

// FarthestPairSingle is the single-machine baseline: convex hull plus
// rotating calipers (paper §8).
func FarthestPairSingle(pts []geom.Point) (geom.PointPair, bool) {
	if len(pts) < 2 {
		return geom.PointPair{}, false
	}
	p, q, d := geom.FarthestPair(pts)
	return geom.PointPair{P: p, Q: q, Dist: d}, true
}

// FarthestPairHadoop computes the farthest pair of a heap file by the
// hull-based route available without an index (paper §8.1): local hulls in
// the map phase, then rotating calipers over all collected hull points in
// a single reducer — the bottleneck the paper calls out.
func FarthestPairHadoop(sys *core.System, file string) (geom.PointPair, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return geom.PointPair{}, nil, err
	}
	out := file + ".farthest.out"
	rep, err := sys.Cluster().Run(&mapreduce.Job{
		Name: "farthestpair-hadoop", Kind: "farthestpair-hadoop", Splits: f.Splits(), Output: out,
	})
	if err != nil {
		return geom.PointPair{}, nil, err
	}
	return readPairOutput(sys, out, rep)
}

// farthestHullsReduce runs rotating calipers over the collected local
// hull points (the map is the convex hull kind's).
func farthestHullsReduce(ctx *mapreduce.TaskContext, key string, values []string) error {
	pts, err := geomio.DecodePoints(values)
	if err != nil {
		return err
	}
	if len(pts) < 2 {
		return nil
	}
	p, q, _ := geom.FarthestPair(pts)
	ctx.Write(geomio.EncodePoint(p) + " " + geomio.EncodePoint(q))
	return nil
}

// FarthestPairFilter implements the two-pass pair pruning of paper §8.2:
// pass one computes the greatest lower bound (GLB) over all partition
// pairs using the tighter minimal-MBR bound of Fig. 18a; pass two keeps
// only the pairs whose upper bound reaches the GLB. The returned splits
// carry the two partitions of each surviving pair.
func FarthestPairFilter(splits []*mapreduce.Split) []*mapreduce.Split {
	glb := 0.0
	for i := 0; i < len(splits); i++ {
		for j := i; j < len(splits); j++ {
			var lb float64
			if i == j {
				// A single minimal MBR guarantees a pair at least as far
				// apart as its longer side (points on opposite edges).
				c := contentOf(splits[i])
				lb = math.Max(c.Width(), c.Height())
			} else {
				lb = contentOf(splits[i]).FarthestPairLowerBound(contentOf(splits[j]))
			}
			if lb > glb {
				glb = lb
			}
		}
	}
	var out []*mapreduce.Split
	for i := 0; i < len(splits); i++ {
		for j := i; j < len(splits); j++ {
			ub := contentOf(splits[i]).MaxDist(contentOf(splits[j]))
			if ub < glb {
				continue
			}
			s := &mapreduce.Split{
				Partition:  splits[i].Partition + "*" + splits[j].Partition,
				MBR:        splits[i].MBR.Union(splits[j].MBR),
				ContentMBR: contentOf(splits[i]).Union(contentOf(splits[j])),
				Blocks:     splits[i].Blocks,
			}
			if j != i {
				s.Extra = splits[j].Blocks
			}
			out = append(out, s)
		}
	}
	return out
}

// FarthestPairSHadoop computes the farthest pair over an indexed points
// file (paper §8.2): the filter selects candidate partition pairs by the
// GLB rule, each map task solves its pair with hull plus rotating
// calipers, and the reducer takes the maximum.
func FarthestPairSHadoop(sys *core.System, file string) (geom.PointPair, *mapreduce.Report, error) {
	f, err := sys.Open(file)
	if err != nil {
		return geom.PointPair{}, nil, err
	}
	if f.Index == nil {
		return geom.PointPair{}, nil, errNotIndexed("farthestpair", file)
	}
	out := file + ".farthest.out"
	rep, err := sys.Cluster().Run(&mapreduce.Job{
		Name: "farthestpair", Kind: "farthestpair", Splits: f.Splits(), Filter: FarthestPairFilter, Output: out,
	})
	if err != nil {
		return geom.PointPair{}, nil, err
	}
	return readPairOutput(sys, out, rep)
}

// farthestPairMap solves one candidate pair of partitions.
func farthestPairMap(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
	pts, err := split.Points()
	if err != nil {
		return err
	}
	extra, err := split.ExtraPoints()
	if err != nil {
		return err
	}
	pts = append(pts, extra...)
	if len(pts) < 2 {
		return nil
	}
	p, q, _ := geom.FarthestPair(pts)
	ctx.Emit("1", geomio.EncodePoint(p)+" "+geomio.EncodePoint(q))
	return nil
}

func farthestPairReduce(ctx *mapreduce.TaskContext, key string, values []string) error {
	best := geom.PointPair{Dist: -1}
	for _, v := range values {
		pair, err := decodePair(v)
		if err != nil {
			return err
		}
		if pair.Dist > best.Dist {
			best = pair
		}
	}
	if best.Dist >= 0 {
		ctx.Write(geomio.EncodePoint(best.P) + " " + geomio.EncodePoint(best.Q))
	}
	return nil
}

func decodePair(s string) (geom.PointPair, error) {
	i := strings.LastIndexByte(s, ' ')
	if i < 0 {
		return geom.PointPair{}, fmt.Errorf("cg: bad pair record %q", s)
	}
	p, err := geomio.DecodePoint(s[:i])
	if err != nil {
		return geom.PointPair{}, err
	}
	q, err := geomio.DecodePoint(s[i+1:])
	if err != nil {
		return geom.PointPair{}, err
	}
	return geom.PointPair{P: p, Q: q, Dist: p.Dist(q)}, nil
}

func readPairOutput(sys *core.System, out string, rep *mapreduce.Report) (geom.PointPair, *mapreduce.Report, error) {
	recs, err := sys.FS().ReadAll(out)
	if err != nil {
		return geom.PointPair{}, nil, err
	}
	if len(recs) == 0 {
		return geom.PointPair{}, rep, fmt.Errorf("cg: no pair produced")
	}
	pair, err := decodePair(recs[0])
	if err != nil {
		return geom.PointPair{}, nil, err
	}
	return pair, rep, nil
}
