package ops

import (
	"cmp"
	"strconv"
	"strings"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// This file registers the operations layer's job kinds. A job carries no
// task code: each operation's task-side functions are built from its
// registered kind plus the job's Conf (the broadcast configuration), by
// whoever executes the attempt — the master in process or a worker — so
// the two run the same functions by construction. What a map body needs
// beyond Conf it reads off its split (Partition, MBR, Tag), which ships
// with the records.

// Conf keys broadcast to tasks.
const (
	confRangeQuery   = "ops.range.query"
	confRangeSpace   = "ops.range.space" // set iff the file's index is disjoint
	confKNNQ         = "ops.knn.q"
	confKNNK         = "ops.knn.k"
	confJoinLSpace   = "ops.join.lspace" // a side's space is set iff its index is disjoint
	confJoinRSpace   = "ops.join.rspace"
	confPBSMSide     = "ops.pbsm.side"
	confPBSMSpace    = "ops.pbsm.space"
	confPlotExtent   = "ops.plot.extent"
	confPlotWidth    = "ops.plot.width"
	confPlotHeight   = "ops.plot.height"
	confPlotReducers = "ops.plot.reducers"
)

// confReader decodes a kind's parameters from its Conf; the first value
// that does not parse becomes err, the builder's error.
type confReader struct {
	conf map[string]string
	err  error
}

func (c *confReader) rect(key string) geom.Rect {
	r, err := geomio.DecodeRect(c.conf[key])
	c.err = cmp.Or(c.err, err)
	return r
}

// optRect is rect for a key that may be unset: the zero Rect then.
func (c *confReader) optRect(key string) geom.Rect {
	if c.conf[key] == "" {
		return geom.Rect{}
	}
	return c.rect(key)
}

func (c *confReader) point(key string) geom.Point {
	p, err := geomio.DecodePoint(c.conf[key])
	c.err = cmp.Or(c.err, err)
	return p
}

func (c *confReader) int(key string) int {
	n, err := strconv.Atoi(c.conf[key])
	c.err = cmp.Or(c.err, err)
	return n
}

// rangePointsMap is the map body of the range-points job.
func rangePointsMap(query geom.Rect) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
		for bi, b := range split.Blocks {
			ids, err := blockRangeIDs(b, query)
			if err != nil {
				return err
			}
			ctx.Inc(CounterRangeBlocksScanned, 1)
			if len(ids) == 0 {
				continue // a counter that never ticked stays out of the report
			}
			ctx.Inc(CounterRangeMatches, int64(len(ids)))
			ctx.WriteSelected(bi, ids)
		}
		return nil
	}
}

// knnMap is the map body of one kNN round, a selection: each block
// selects its k nearest (with ties), and the plan merges them on the master.
func knnMap(q geom.Point, k int) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
		for bi, b := range split.Blocks {
			ids, err := blockNearest(b, q, k)
			if err != nil {
				return err
			}
			ctx.WriteSelected(bi, ids)
		}
		return nil
	}
}

// joinTag encodes the pair split's per-side partition boundaries into the
// split Tag — the only per-task state the indexed join needs beyond Conf,
// carried on the split itself so it ships to workers with the records.
func joinTag(left, right geom.Rect) string {
	return geomio.EncodeRect(left) + "|" + geomio.EncodeRect(right)
}

func parseJoinTag(tag string) (left, right geom.Rect, err error) {
	l, r, ok := strings.Cut(tag, "|")
	if !ok {
		return left, right, strconv.ErrSyntax
	}
	if left, err = geomio.DecodeRect(l); err != nil {
		return left, right, err
	}
	right, err = geomio.DecodeRect(r)
	return left, right, err
}

// indexedJoinMap is the map body of the indexed spatial join: plane-sweep
// the pair split's two block groups over the MBRs their blocks hold,
// deduplicating replicated matches with the reference-point rule on each
// disjoint side.
func indexedJoinMap(lDisjoint, rDisjoint bool, lSpace, rSpace geom.Rect) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
		lBound, rBound, err := parseJoinTag(split.Tag)
		if err != nil {
			return err
		}
		ls, err := blockItems(split.Blocks)
		if err != nil {
			return err
		}
		rs, err := blockItems(split.Extra)
		if err != nil {
			return err
		}
		var candidates, dropped int64
		planeSweepJoin(ls, rs, func(lrec, rrec string, overlap geom.Rect) {
			candidates++
			ref := geom.Point{X: overlap.MinX, Y: overlap.MinY}
			if lDisjoint && !ownsRef(lBound, lSpace, ref) || rDisjoint && !ownsRef(rBound, rSpace, ref) {
				dropped++
				return
			}
			ctx.Write(lrec + "\t" + rrec)
		})
		// Tallied once per task; a counter that never ticked stays out of
		// the report.
		if candidates > 0 {
			ctx.Inc(CounterJoinCandidates, candidates)
		}
		if dropped > 0 {
			ctx.Inc(CounterDedupDropped, dropped)
		}
		return nil
	}
}

func init() {
	register := func(kind string, build func(c *confReader) mapreduce.KindFuncs) {
		mapreduce.RegisterKind(kind, func(conf map[string]string) (mapreduce.KindFuncs, error) {
			c := &confReader{conf: conf}
			return build(c), c.err
		})
	}
	register("range-points", func(c *confReader) mapreduce.KindFuncs {
		return mapreduce.KindFuncs{Map: rangePointsMap(c.rect(confRangeQuery))}
	})
	register("range-regions", func(c *confReader) mapreduce.KindFuncs {
		return mapreduce.KindFuncs{Map: rangeRegionsMap(c.rect(confRangeQuery), c.conf[confRangeSpace] != "", c.optRect(confRangeSpace))}
	})
	register("knn", func(c *confReader) mapreduce.KindFuncs {
		return mapreduce.KindFuncs{Map: knnMap(c.point(confKNNQ), c.int(confKNNK))}
	})
	register("spatial-join", func(c *confReader) mapreduce.KindFuncs {
		return mapreduce.KindFuncs{Map: indexedJoinMap(
			c.conf[confJoinLSpace] != "", c.conf[confJoinRSpace] != "",
			c.optRect(confJoinLSpace), c.optRect(confJoinRSpace))}
	})
	register("pbsm-join", func(c *confReader) mapreduce.KindFuncs {
		g := newPBSMGrid(c.rect(confPBSMSpace), c.int(confPBSMSide))
		return mapreduce.KindFuncs{Map: g.mapSplit, Reduce: g.reduceCell}
	})
	register("ann-local", func(*confReader) mapreduce.KindFuncs { return mapreduce.KindFuncs{Map: annLocalMap} })
	register("ann-probe", func(*confReader) mapreduce.KindFuncs { return mapreduce.KindFuncs{Map: annProbeMap} })
	register("plot", func(c *confReader) mapreduce.KindFuncs {
		return mapreduce.KindFuncs{
			Map:    plotMap(c.rect(confPlotExtent), c.int(confPlotWidth), c.int(confPlotHeight), c.int(confPlotReducers)),
			Reduce: plotReduce,
		}
	})
}
