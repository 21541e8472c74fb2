package mapreduce

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/obs"
)

// Job kinds. A job is a registered kind plus its Conf: functions are Go
// closures and cannot ship over RPC, so whoever executes an attempt — the
// master's in-process runner or a worker — builds the job's functions from
// the kind's registered builder and the job's Conf (which, like Hadoop's
// job configuration, is the only state broadcast to tasks). Master and
// workers are one binary with one registry, so any of them runs any job,
// and Run rejects a job whose Kind nobody registered.

// KindFuncs is the set of task-side functions a kind builder produces.
// The Filter hook is master-only and never rebuilt remotely.
type KindFuncs struct {
	// Map is required.
	Map MapFunc
	// Combine optionally pre-aggregates map output per task.
	Combine ReduceFunc
	// Reduce is optional; a map-only job writes only direct output.
	Reduce ReduceFunc
}

// KindBuilder rebuilds a job kind's functions from its configuration.
type KindBuilder func(conf map[string]string) (KindFuncs, error)

var (
	kindsMu sync.RWMutex
	kinds   = map[string]KindBuilder{}
)

// RegisterKind registers a job kind builder, typically from an init
// function of the operations layer. Registering the same name twice
// panics: two builders for one kind would silently diverge master and
// worker execution.
func RegisterKind(name string, b KindBuilder) {
	kindsMu.Lock()
	defer kindsMu.Unlock()
	if _, ok := kinds[name]; ok {
		panic(fmt.Sprintf("mapreduce: job kind %q registered twice", name))
	}
	kinds[name] = b
}

// BuildKind builds a kind's functions from conf.
func BuildKind(name string, conf map[string]string) (KindFuncs, error) {
	kindsMu.RLock()
	b, ok := kinds[name]
	kindsMu.RUnlock()
	if !ok {
		return KindFuncs{}, fmt.Errorf("mapreduce: unknown job kind %q", name)
	}
	return b(conf)
}

// GroupShards merges fetched map shards into reduce groups, in map-task
// order — the same order the in-process shuffle concatenates per-reducer
// runs in, so grouped value order (and therefore reduce output) is
// identical on both paths. taskShards must be indexed by map task.
func GroupShards(taskShards [][]Pair) map[string][]string {
	g := make(map[string][]string)
	for _, shard := range taskShards {
		MergePairs(g, shard)
	}
	return g
}

// MergePairs folds one run of pairs into reduce groups. Streaming
// reducers call it per decoded batch, so merge work overlaps the shard
// transfer; feeding batches in stream order is equivalent to merging the
// whole shard at once.
func MergePairs(g map[string][]string, pairs []Pair) {
	for _, p := range pairs {
		g[p.Key] = append(g[p.Key], p.Value)
	}
}

// ExecReduceAttempt executes one reduce attempt of a job kind's functions
// over grouped values: keys in sorted order, one CounterReduceGroups tick
// per key, and the partition-records observation — the one reduce attempt
// body, called by the in-process runner and by workers alike.
func ExecReduceAttempt(kf KindFuncs, conf map[string]string, groups map[string][]string, attempt int) (out []string, valuesIn int64, tm *obs.TaskMetrics, err error) {
	keys := make([]string, 0, len(groups))
	for k, vs := range groups {
		keys = append(keys, k)
		valuesIn += int64(len(vs))
	}
	sort.Strings(keys)
	tm = obs.NewTaskMetrics()
	rctx := &TaskContext{conf: conf, metrics: tm, attempt: attempt}
	for _, k := range keys {
		tm.Inc(CounterReduceGroups, 1)
		if err := kf.Reduce(rctx, k, groups[k]); err != nil {
			return nil, 0, nil, err
		}
	}
	tm.Observe(HistReducePartRecords, float64(valuesIn))
	return rctx.out, valuesIn, tm, nil
}

// ShardTotals sums a map attempt's shuffle output: pair count and encoded
// key+value bytes, the numbers behind CounterShufflePairs/Bytes. Exported
// for the worker package, which reports them in TaskDone.
func ShardTotals(shards [][]Pair) (pairs, bytes int64) {
	for _, shard := range shards {
		pairs += int64(len(shard))
		for _, p := range shard {
			bytes += int64(len(p.Key) + len(p.Value))
		}
	}
	return pairs, bytes
}

// StreamShardFrom streams one map shard from a shard server (worker or
// master) at addr in ShuffleChunkBytes chunks, invoking sink with each
// decoded batch of pairs as its frames complete — so a reducer merges
// while the rest of the shard is still in flight. Connection failures,
// torn frames, truncation (no end-of-stream marker) and gob damage all
// surface as errors the caller treats as a lost shard.
func StreamShardFrom(ctx context.Context, peers *Peers, addr string, jobID int64, task, attempt, reduce int, sink func([]Pair) error) error {
	var st ShardStream
	offset := int64(0)
	for {
		var reply FetchChunkReply
		args := FetchChunkArgs{
			JobID: jobID, Task: task, Attempt: attempt, Reduce: reduce,
			Offset: offset, MaxBytes: ShuffleChunkBytes,
		}
		if err := peers.Call(ctx, addr, ShardService+".FetchChunk", args, &reply); err != nil {
			return err
		}
		pairs, err := st.Feed(reply.Data)
		if err != nil {
			return err
		}
		if len(pairs) > 0 {
			if err := sink(pairs); err != nil {
				return err
			}
		}
		offset += int64(len(reply.Data))
		if reply.EOF {
			break
		}
		if len(reply.Data) == 0 {
			return &dfs.TornShardError{Reason: "empty non-final chunk"}
		}
	}
	if !st.Done() {
		return &dfs.TornShardError{Reason: "spill stream ends before its end-of-stream frame"}
	}
	return nil
}

// ChunkWindow is the serving half of the same protocol: the window of a
// size-byte shard stream one FetchChunk call gets — n bytes from offset,
// and whether they reach the stream's end. An offset exactly at the end is
// a valid, empty, final chunk; a non-positive maxBytes means "the rest".
func ChunkWindow(size, offset int64, maxBytes int) (n int64, eof bool, err error) {
	if offset < 0 || offset > size {
		return 0, false, fmt.Errorf("mapreduce: chunk offset %d outside shard stream of %d bytes", offset, size)
	}
	n = size - offset
	if maxBytes > 0 && int64(maxBytes) < n {
		n = int64(maxBytes)
	}
	return n, offset+n == size, nil
}
