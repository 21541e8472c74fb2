package worker

import (
	"context"
	"fmt"

	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
)

// Query-executor role: a worker started with Config.ServeTasks answers
// the master's sharded-serving scatter calls. Each call names the
// partitions whose rendezvous-first holder this worker is (with their
// replica-aware descriptors); the worker pins each into its memory tier —
// assembled from its own replica store, peer holders, or the master,
// exactly like a map task's input — and runs the query plan's step
// (ops/shard.go) against the pinned partitions' sorted points. The step's
// result is the wire reply, unconverted: a range answer ships as a
// finished piece of the response body (the matches' JSON objects, each
// written the first time a response carried it, merged across the named
// partitions, plus their merge keys when the master will merge again), a
// kNN answer as each partition's (dist, point) candidates; the master only
// merges.

// pinServePartition resolves one exec call to a pinned partition.
func (w *Worker) pinServePartition(file string, epoch int64, meta *mapreduce.WireSplitMeta) (*ops.LocalPartition, error) {
	if w.tier == nil {
		return nil, fmt.Errorf("worker: not serve-capable (started without ServeTasks)")
	}
	if meta == nil {
		return nil, fmt.Errorf("worker: exec call without a split descriptor")
	}
	if part, ok := w.tier.Lookup(file, epoch, meta.Partition); ok {
		return part, nil
	}
	sp, _, err := w.assembleSplit(meta)
	if err != nil {
		return nil, err
	}
	return w.tier.PinPartition(file, epoch, sp)
}

// ServeTierStats exposes the serving tier's footprint (0, 0 when the
// worker is not serve-capable) for tests and telemetry.
func (w *Worker) ServeTierStats() (partitions int, bytes int64) {
	if w.tier == nil {
		return 0, 0
	}
	return w.tier.Stats()
}

// pinAll pins every partition a call names: Meta, then More. A call whose
// caller gave up stops before its next partition.
func (w *Worker) pinAll(ctx context.Context, file string, epoch int64, meta *mapreduce.WireSplitMeta, more []*mapreduce.WireSplitMeta) ([]*ops.LocalPartition, error) {
	parts := make([]*ops.LocalPartition, 0, 1+len(more))
	for _, m := range append([]*mapreduce.WireSplitMeta{meta}, more...) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		part, err := w.pinServePartition(file, epoch, m)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	return parts, nil
}

// ExecRange answers a sharded range query's call: the named partitions'
// matches merged into one sorted stream, written into the capacity of a
// pooled reply that the server releases once the call is answered.
func (w *Worker) ExecRange(ctx context.Context, args *mapreduce.ExecRangeArgs, reply *mapreduce.ExecRangeReply) error {
	parts, err := w.pinAll(ctx, args.File, args.Epoch, args.Meta, args.More)
	if err != nil {
		return err
	}
	*reply = *mapreduce.NewExecRangeReply()
	return ops.RangeStream(reply, parts, args.Query, args.Keys)
}

// ExecKNN answers a sharded kNN round's call: each named partition's
// canonically sorted k nearest candidates, concatenated.
func (w *Worker) ExecKNN(ctx context.Context, args *mapreduce.ExecKNNArgs, reply *mapreduce.ExecKNNReply) error {
	parts, err := w.pinAll(ctx, args.File, args.Epoch, args.Meta, args.More)
	if err != nil {
		return err
	}
	ops.KNNSets(reply, parts, args.Q, args.K)
	return nil
}
