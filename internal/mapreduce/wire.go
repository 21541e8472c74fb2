package mapreduce

import (
	"bytes"
	"encoding/gob"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/obs"
)

// This file is the wire protocol between the master runtime and worker
// processes (net/rpc over TCP, gob-encoded). The protocol is pull-based,
// like Hadoop's: workers register, heartbeat, long-poll for task
// assignments, read their split's input blocks (from their own replica
// store, a peer worker, or the master — in that order), execute, spill
// intermediate shards locally, and report completion. Reducers stream
// map shards in chunks directly from the worker that produced them — or
// from the master, for attempts that ran in process — over the same
// Shards.FetchChunk call on either side, merging frames as they arrive
// instead of waiting for a whole shard to transfer.

// RPC service names registered on the master and worker RPC servers.
const (
	// MasterService hosts the control-plane calls workers make.
	MasterService = "Master"
	// ShardService hosts the data-plane calls and is registered by both
	// sides: workers serve their spilled shard files and block replicas,
	// the master serves shards produced by in-process (fallback or
	// re-issued) map attempts plus blocks no worker replica holds.
	ShardService = "Shards"
)

// Task phases carried in assignments.
const (
	TaskMap    = "map"
	TaskReduce = "reduce"
	// TaskNone is returned by a GetTask long-poll that timed out with no
	// work available; the worker simply polls again.
	TaskNone = ""
)

// RegisterArgs introduces a worker to the master.
type RegisterArgs struct {
	// Addr is the worker's shard-serving listen address.
	Addr string
	// PID is the worker's OS process id, used by the real-process kill
	// mode of the chaos harness.
	PID int
	// CanServe marks a worker that runs the query-executor role
	// (-serve-tasks): it accepts ExecRange/ExecKNN calls against pinned
	// replica partitions. The master routes sharded serving only to
	// workers that registered with CanServe.
	CanServe bool
}

// RegisterReply assigns the worker its identity and lease terms.
type RegisterReply struct {
	WorkerID int64
	// HeartbeatEvery is how often the worker must check in; Lease is how
	// long the master waits past the last heartbeat before declaring the
	// worker dead and re-issuing its in-flight tasks.
	HeartbeatEvery time.Duration
	Lease          time.Duration
}

// HeartbeatArgs renews a worker's lease.
type HeartbeatArgs struct {
	WorkerID int64
}

// HeartbeatReply acknowledges a heartbeat. OK is false when the master no
// longer knows the worker (its lease expired); the worker must
// re-register before pulling further tasks.
type HeartbeatReply struct {
	OK bool
	// Epochs carries the DFS mutation epoch of every live file (set only
	// when the master has an epoch source). A serving worker compares the
	// snapshot against its pinned partitions and drops any pinned under
	// an older epoch — the push half of cache invalidation. Correctness
	// never depends on it: executor calls carry the query's epoch and the
	// tier is epoch-keyed, so a stale pin can never answer a fresh query.
	Epochs map[string]int64
}

// GetTaskArgs long-polls for a task assignment. A GetTask call also
// renews the worker's lease, so a worker busy polling never expires.
type GetTaskArgs struct {
	WorkerID int64
}

// ShardSource tells a reducer where to fetch one map task's shard: the
// shard-serving address of the worker (or master) holding the winning
// attempt's spill.
type ShardSource struct {
	Task    int
	Attempt int
	Addr    string
}

// TaskAssignment is one unit of work handed to a worker. Phase TaskNone
// means the long-poll timed out.
type TaskAssignment struct {
	DispatchID int64
	Phase      string // TaskMap, TaskReduce or TaskNone
	JobID      int64
	Task       int
	Attempt    int
	// JobKind names the registered job kind whose functions the worker
	// rebuilds from Conf (functions cannot ship over RPC).
	JobKind string
	Conf    map[string]string
	// NumShards is the job's reducer count; map tasks bucket their emitted
	// pairs into this many spill shards. It is 0 for a map-only job, whose
	// attempts spill nothing: their direct output travels in TaskDone and
	// no reducer exists to fetch a shard.
	NumShards int
	// Sources lists, for reduce tasks, the shard holders of every map
	// task in task order — the order the in-process shuffle merges in.
	Sources []ShardSource
	// Meta, for map tasks, describes the split's blocks and their replica
	// holders; the worker assembles its input from them block by block.
	Meta *WireSplitMeta
}

// WireBlockRef names one block of a split and where its replicas live.
type WireBlockRef struct {
	ID        int64
	Partition string
	// Extra marks blocks of the secondary group of a pair split.
	Extra bool
	// Holders are shard-serving addresses of workers holding a sealed
	// replica, in placement order. A reader tries its own store first,
	// then peers, then the master.
	Holders []string
}

// WireSplitMeta is a split's shape without its records: enough for a
// worker to rebuild the split from block replicas, falling back to the
// master only for blocks it cannot reach anywhere else.
type WireSplitMeta struct {
	Partition  string
	MBR        geom.Rect
	ContentMBR geom.Rect
	Tag        string
	Blocks     []WireBlockRef
}

// TaskDoneArgs reports an attempt's outcome. Exactly one of Err/"success
// fields" is meaningful: a non-empty Err carries the failure (with its
// transience classification), otherwise Out/Metrics/totals carry the
// result. LostMaps lists map tasks whose shards a reduce attempt failed
// to fetch (dead holder, torn spill); the master re-issues those maps and
// the reduce attempt is retried.
type TaskDoneArgs struct {
	WorkerID   int64
	DispatchID int64

	Err       string
	Transient bool
	LostMaps  []int

	// Out is the attempt's direct (early-flush) output for map tasks, or
	// the reduce partition's output for reduce tasks.
	Out []string
	// Metrics is the attempt's task-local counter/observation buffer; the
	// master merges it through the win gate exactly like an in-process
	// attempt's buffer.
	Metrics obs.TaskMetricsWire
	// RecordsIn is the attempt's input record (map) or value (reduce)
	// count; Pairs/Bytes are a map attempt's shuffle totals.
	RecordsIn int64
	Pairs     int64
	Bytes     int64

	// Input-read locality of a map attempt, in block reads and record
	// bytes: Local counts blocks served from the worker's own replica
	// store, Remote counts peer and master reads. The master folds these
	// into its system registry — they
	// are runtime traffic metrics, never job counters, so remote and
	// in-process runs keep identical job counter sets.
	LocalReads  int64
	LocalBytes  int64
	RemoteReads int64
	RemoteBytes int64
}

// TaskDoneReply acknowledges a completion report.
type TaskDoneReply struct{}

// FetchChunkArgs requests one chunk of a map task's spill stream for one
// reducer. Offset is a byte offset into the stream; MaxBytes bounds the
// reply (the reader picks the chunk size, see ShuffleChunkBytes).
type FetchChunkArgs struct {
	JobID    int64
	Task     int
	Attempt  int
	Reduce   int
	Offset   int64
	MaxBytes int
}

// FetchChunkReply carries one chunk of spill-stream bytes. EOF marks the
// last chunk; chunk boundaries are arbitrary — the reader reassembles
// sealed frames with a ShardStream, so integrity never depends on how
// the server happened to slice the file.
type FetchChunkReply struct {
	Data []byte
	EOF  bool
}

// ShuffleChunkBytes is the chunk size reducers stream spill shards with.
// A var, not a const, so tests shrink it to force multi-chunk transfers
// on small shards.
var ShuffleChunkBytes = 64 << 10

// shardBatchPairs is the number of pairs per sealed frame in a spill
// stream. Batches are never empty, so the empty end-of-stream frame is
// unambiguous and a truncated stream is always detectable.
const shardBatchPairs = 512

// EncodeShard serializes one reducer's pairs into a spill stream: a
// sequence of sealed frames of at most shardBatchPairs pairs each,
// terminated by an empty sealed frame. A reducer can decode and merge
// every complete frame before the stream finishes transferring, and a
// stream cut anywhere — mid-frame or between frames — fails verification
// (torn frame, or missing end-of-stream marker).
func EncodeShard(pairs []Pair) ([]byte, error) {
	var out []byte
	for len(pairs) > 0 {
		n := shardBatchPairs
		if n > len(pairs) {
			n = len(pairs)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(pairs[:n]); err != nil {
			return nil, err
		}
		out = append(out, dfs.SealShard(buf.Bytes())...)
		pairs = pairs[n:]
	}
	return append(out, dfs.SealShard(nil)...), nil
}

// DecodeShard verifies and deserializes a whole spill stream. Damage —
// torn frames, truncation before the end-of-stream marker, trailing
// bytes — surfaces as dfs.ErrTornShard (transient: the producing map
// task can be re-run).
func DecodeShard(stream []byte) ([]Pair, error) {
	var st ShardStream
	pairs, err := st.Feed(stream)
	if err != nil {
		return nil, err
	}
	if !st.Done() {
		return nil, &dfs.TornShardError{Reason: "spill stream ends before its end-of-stream frame"}
	}
	return pairs, nil
}

// ShardStream reassembles a spill stream from arbitrarily sliced chunks,
// yielding decoded pair batches as soon as their frames complete — the
// reducer-side half of streaming shuffle.
type ShardStream struct {
	buf  []byte
	done bool
}

// Feed appends a chunk and returns the pairs of every frame it
// completed. After the end-of-stream frame, any further byte is an
// integrity failure.
func (s *ShardStream) Feed(chunk []byte) ([]Pair, error) {
	if s.done {
		if len(chunk) > 0 {
			return nil, &dfs.TornShardError{Reason: "bytes after the end-of-stream frame"}
		}
		return nil, nil
	}
	s.buf = append(s.buf, chunk...)
	var out []Pair
	for {
		n, err := dfs.PeekShardFrame(s.buf)
		if err != nil {
			return nil, err
		}
		if n == 0 || len(s.buf) < n {
			return out, nil
		}
		payload, err := dfs.UnsealShard(s.buf[:n])
		if err != nil {
			return nil, err
		}
		s.buf = s.buf[n:]
		if len(payload) == 0 {
			s.done = true
			if len(s.buf) > 0 {
				return nil, &dfs.TornShardError{Reason: "bytes after the end-of-stream frame"}
			}
			return out, nil
		}
		var batch []Pair
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&batch); err != nil {
			return nil, err
		}
		out = append(out, batch...)
	}
}

// Done reports whether the end-of-stream frame arrived; a transfer that
// ends without it was truncated.
func (s *ShardStream) Done() bool { return s.done }

// ReadBlockArgs fetches one sealed block-replica frame by block id, from
// a worker's replica store or from the master's data plane.
type ReadBlockArgs struct {
	ID int64
}

// ReadBlockReply carries the sealed block frame (dfs.EncodeBlockFrame);
// the reader unseals and decodes it, so a torn replica is detected at the
// consumer and the read falls through to the next source.
type ReadBlockReply struct {
	Frame []byte
}

// PushBlockArgs installs one sealed block replica on a worker — the
// master's replication (and re-replication) write path.
type PushBlockArgs struct {
	ID    int64
	Frame []byte
}

// PushBlockReply acknowledges a replica installation.
type PushBlockReply struct{}

// DropJobArgs tells a worker a job ended; the worker garbage-collects
// the job's spill directory.
type DropJobArgs struct {
	JobID int64
}

// DropJobReply acknowledges spill GC.
type DropJobReply struct{}

// ExecRangeArgs asks a serving worker for one partition's fragment of a
// range query. Meta describes the split (with replica holders) so the
// worker can assemble it from its local replica store, falling through to
// peers and the master exactly like a map task; Epoch keys the worker's
// pinned tier so a rewrite can never be answered from a stale pin.
type ExecRangeArgs struct {
	File  string
	Epoch int64
	Meta  *WireSplitMeta
	Query geom.Rect
}

// ExecRangeReply carries the partition's matches as one sorted stream, the
// only shape a range fragment takes on the wire: Keys holds the merge keys
// x0,y0,x1,y1,… in canonical (X, then Y) order, Frag the same points' JSON
// objects ({"x":..,"y":..} as encoding/json renders them, copied from the
// pin-time arena) comma-joined — an object ends at its first '}', so no
// offset table ships. Records is the partition's record count (the master
// mirrors the local engine's hotness and stats accounting with it). gob
// omits zero-valued fields: reset all three before reusing a reply.
type ExecRangeReply struct {
	Keys    []float64
	Frag    []byte
	Records int64
}

// ExecKNNArgs asks a serving worker for one partition's tie-complete
// k-nearest candidate set — the per-worker half of the two-round kNN
// protocol. The master merges candidate sets from all consulted shards
// with the canonical (dist, record) comparator.
type ExecKNNArgs struct {
	File  string
	Epoch int64
	Meta  *WireSplitMeta
	Q     geom.Point
	K     int
}

// WireKNNCandidate is one (dist, record) candidate on the wire.
type WireKNNCandidate struct {
	Dist float64
	Rec  string
}

// ExecKNNReply carries the partition's candidate set (already sorted and
// truncated to k by the worker) plus its record count.
type ExecKNNReply struct {
	Cands   []WireKNNCandidate
	Records int64
}
