package ops

import (
	"strconv"
	"strings"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
)

// This file makes the core query operations runnable on remote worker
// processes. A worker cannot receive Go closures, so each operation's
// task-side functions are built from a registered job kind plus the job's
// Conf (the broadcast configuration); the in-process path shares the same
// builders, with one difference: how a block is probed (probe.go). The
// master's blocks persist and carry a memoised R-tree; a worker, which has
// no System and drops its input with the attempt, scans the block once.
// Both probes return the same ids in the same order and the same
// tie-complete kNN nominations, so the two paths produce byte-identical
// output.

// Conf keys broadcast to remote tasks.
const (
	confRangeQuery    = "ops.range.query"
	confKNNQ          = "ops.knn.q"
	confKNNK          = "ops.knn.k"
	confJoinLDisjoint = "ops.join.ldisjoint"
	confJoinRDisjoint = "ops.join.rdisjoint"
	confJoinLSpace    = "ops.join.lspace"
	confJoinRSpace    = "ops.join.rspace"
)

// rangePointsMap is the map body of the range-points job.
func rangePointsMap(query geom.Rect, probe blockProbe) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
		countPartitionRecords(ctx, split)
		for _, b := range split.Blocks {
			ids, err := probe.rangeIDs(b, query)
			if err != nil {
				return err
			}
			ctx.Inc(CounterRangeBlocksScanned, 1)
			if len(ids) == 0 {
				continue // a counter that never ticked stays out of the report
			}
			ctx.Inc(CounterRangeMatches, int64(len(ids)))
			countPartitionMatches(ctx, split, int64(len(ids)))
			for _, id := range ids {
				ctx.Write(b.Record(id))
			}
		}
		return nil
	}
}

// knnMap is the map body of one kNN round: each block nominates its k
// nearest (with ties), shuffled under a single key.
func knnMap(q geom.Point, k int, probe blockProbe) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
		countPartitionRecords(ctx, split)
		for _, b := range split.Blocks {
			cands, err := probe.nearest(b, q, k)
			if err != nil {
				return err
			}
			if len(cands) > 0 {
				countPartitionMatches(ctx, split, int64(len(cands)))
			}
			for _, c := range cands {
				ctx.Emit("k", encodeCandidate(c))
			}
		}
		return nil
	}
}

// knnReduce merges the candidate set down to the k nearest, in the
// canonical candidate order.
func knnReduce(k int) mapreduce.ReduceFunc {
	return func(ctx *mapreduce.TaskContext, key string, values []string) error {
		cands := make([]KNNCandidate, len(values))
		for i, v := range values {
			var err error
			if cands[i], err = decodeCandidate(v); err != nil {
				return err
			}
		}
		for _, c := range sortCandidates(cands, k) {
			ctx.Write(encodeCandidate(c))
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
// the pair split's two block groups, deduplicating replicated matches
// with the reference-point rule on each disjoint side.
func indexedJoinMap(lDisjoint, rDisjoint bool, lSpace, rSpace geom.Rect) mapreduce.MapFunc {
	return func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
		lBound, rBound, err := parseJoinTag(split.Tag)
		if err != nil {
			return err
		}
		lrecs := split.Records()
		rrecs := split.ExtraRecords()
		return planeSweepJoin(lrecs, rrecs, func(lrec, rrec string, overlap geom.Rect) {
			ctx.Inc(CounterJoinCandidates, 1)
			ref := geom.Point{X: overlap.MinX, Y: overlap.MinY}
			if lDisjoint && !ownsRef(lBound, lSpace, ref) {
				ctx.Inc(CounterDedupDropped, 1)
				return
			}
			if rDisjoint && !ownsRef(rBound, rSpace, ref) {
				ctx.Inc(CounterDedupDropped, 1)
				return
			}
			ctx.Write(lrec + "\t" + rrec)
		})
	}
}

func init() {
	mapreduce.RegisterKind("range-points", func(conf map[string]string) (mapreduce.KindFuncs, error) {
		query, err := geomio.DecodeRect(conf[confRangeQuery])
		if err != nil {
			return mapreduce.KindFuncs{}, err
		}
		return mapreduce.KindFuncs{Map: rangePointsMap(query, scanProbe{})}, nil
	})
	mapreduce.RegisterKind("knn", func(conf map[string]string) (mapreduce.KindFuncs, error) {
		q, err := geomio.DecodePoint(conf[confKNNQ])
		if err != nil {
			return mapreduce.KindFuncs{}, err
		}
		k, err := strconv.Atoi(conf[confKNNK])
		if err != nil {
			return mapreduce.KindFuncs{}, err
		}
		return mapreduce.KindFuncs{Map: knnMap(q, k, scanProbe{}), Reduce: knnReduce(k)}, nil
	})
	mapreduce.RegisterKind("spatial-join", func(conf map[string]string) (mapreduce.KindFuncs, error) {
		var lSpace, rSpace geom.Rect
		var err error
		if s := conf[confJoinLSpace]; s != "" {
			if lSpace, err = geomio.DecodeRect(s); err != nil {
				return mapreduce.KindFuncs{}, err
			}
		}
		if s := conf[confJoinRSpace]; s != "" {
			if rSpace, err = geomio.DecodeRect(s); err != nil {
				return mapreduce.KindFuncs{}, err
			}
		}
		return mapreduce.KindFuncs{
			Map: indexedJoinMap(conf[confJoinLDisjoint] == "1", conf[confJoinRDisjoint] == "1", lSpace, rSpace),
		}, nil
	})
}
