package worker

import (
	"fmt"

	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
)

// Query-executor role: a worker started with Config.ServeTasks answers
// the master's sharded-serving scatter calls. Each call names one
// partition (with its replica-aware descriptor); the worker pins the
// partition into its memory tier — assembled from its own replica store,
// peer holders, or the master, exactly like a map task's input — and
// runs the query plan's per-partition step (ops/shard.go) against the
// pinned partition's sorted points. The step's result is the wire reply, unconverted: a
// range fragment ships as a finished piece of the response body (the
// matches' pin-time JSON objects plus their merge keys), a kNN fragment as
// (dist, record) candidates; the master only merges.

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

// ExecRange answers one partition's fragment of a sharded range query:
// the pinned partition's matches as one sorted stream.
func (s *shardServer) ExecRange(args mapreduce.ExecRangeArgs, reply *mapreduce.ExecRangeReply) error {
	part, err := s.w.pinServePartition(args.File, args.Epoch, args.Meta)
	if err != nil {
		return err
	}
	*reply, err = ops.PartitionRangePoints(part, args.Query)
	return err
}

// ExecKNN answers one partition's fragment of a sharded kNN round: its
// canonically sorted k nearest candidates.
func (s *shardServer) ExecKNN(args mapreduce.ExecKNNArgs, reply *mapreduce.ExecKNNReply) error {
	part, err := s.w.pinServePartition(args.File, args.Epoch, args.Meta)
	if err != nil {
		return err
	}
	reply.Cands = ops.PartitionKNNCandidates(part, args.Q, args.K)
	reply.Records = int64(len(part.Recs))
	return nil
}
