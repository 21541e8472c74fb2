package mapreduce

import (
	"sync"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/wirefmt"
)

// This file is the wire protocol between the master runtime and worker
// processes (the call layer's own frame over TCP: codec.go has the frame,
// peers.go the calls). A message's layout
// is its wire method, beside its struct: its fields, each named once, in
// order, which internal/wirefmt writes or reads as the codec's direction
// says. The protocol is pull-based, like Hadoop's: workers register,
// heartbeat, long-poll for task assignments, read their split's input
// blocks (from their own replica store, a peer worker, or the master — in
// that order), execute, spill intermediate shards locally, and report
// completion. Reducers stream map shards in chunks directly from the
// worker that produced them over Shards.FetchChunk, merging frames as they
// arrive instead of waiting for a whole shard to transfer. Only workers
// hold shards: the master serves none.

// Service names: a method is called as "Service.Method", the key of its
// handler in the ServeRPC table of the master or a worker.
const (
	// MasterService hosts the control-plane calls workers make.
	MasterService = "Master"
	// ShardService hosts the data-plane calls and is served by both
	// sides: workers serve their spilled shard files and block replicas,
	// the master serves (ReadBlock only) the blocks no worker replica
	// holds.
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

func (a *RegisterArgs) wire(c *wirefmt.Codec) {
	c.String(&a.Addr)
	c.Int(&a.PID)
	c.Bool(&a.CanServe)
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

func (a *RegisterReply) wire(c *wirefmt.Codec) {
	c.Int64(&a.WorkerID)
	c.Int64((*int64)(&a.HeartbeatEvery))
	c.Int64((*int64)(&a.Lease))
}

// HeartbeatArgs renews a worker's lease.
type HeartbeatArgs struct {
	WorkerID int64
}

func (a *HeartbeatArgs) wire(c *wirefmt.Codec) {
	c.Int64(&a.WorkerID)
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

func (a *HeartbeatReply) wire(c *wirefmt.Codec) {
	c.Bool(&a.OK)
	wirefmt.Map(c, &a.Epochs, 2, (*wirefmt.Codec).Int64)
}

// GetTaskArgs long-polls for a task assignment. A GetTask call also
// renews the worker's lease, so a worker busy polling never expires.
type GetTaskArgs struct {
	WorkerID int64
}

func (a *GetTaskArgs) wire(c *wirefmt.Codec) {
	c.Int64(&a.WorkerID)
}

// ShardSource tells a reducer where to fetch one map task's shard: the
// shard-serving address of the worker holding the winning attempt's
// spill.
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

func (a *TaskAssignment) wire(c *wirefmt.Codec) {
	c.Int64(&a.DispatchID)
	c.String(&a.Phase)
	c.Int64(&a.JobID)
	c.Int(&a.Task)
	c.Int(&a.Attempt)
	c.String(&a.JobKind)
	wirefmt.Map(c, &a.Conf, 2, (*wirefmt.Codec).String)
	c.Int(&a.NumShards)
	wirefmt.Slice(c, &a.Sources, 3, func(c *wirefmt.Codec, s *ShardSource) {
		c.Int(&s.Task)
		c.Int(&s.Attempt)
		c.String(&s.Addr)
	})
	wireMeta(c, &a.Meta)
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

func (m *WireSplitMeta) wire(c *wirefmt.Codec) {
	c.String(&m.Partition)
	c.Rect(&m.MBR)
	c.Rect(&m.ContentMBR)
	c.String(&m.Tag)
	wirefmt.Slice(c, &m.Blocks, 4, func(c *wirefmt.Codec, r *WireBlockRef) {
		c.Int64(&r.ID)
		c.String(&r.Partition)
		c.Bool(&r.Extra)
		c.Strings(&r.Holders)
	})
}

// wireMeta runs a split descriptor behind a presence byte: a call without
// one is a different call (an error at the worker), not an empty split.
// Decoding a present one allocates it afresh.
func wireMeta(c *wirefmt.Codec, m **WireSplitMeta) {
	present := *m != nil
	c.Bool(&present)
	if c.Decoding() {
		*m = nil
		if present {
			*m = new(WireSplitMeta)
		}
	}
	if present {
		(*m).wire(c)
	}
}

// TaskDoneArgs reports an attempt's outcome. Exactly one of Err/"success
// fields" is meaningful: a non-empty Err carries the failure (with its
// transience classification), otherwise Out/Selected/Metrics carry the
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
	// the reduce partition's output for reduce tasks. Selected is a map
	// attempt's direct output given as records of its split's blocks: the
	// master writes them from its own copies, and no text crosses.
	Out      []string
	Selected []Selection
	// Metrics is the attempt's task-local counter/observation buffer, the
	// one record of what it read, emitted and shuffled; the master merges
	// it through the win gate exactly like an in-process attempt's buffer.
	Metrics obs.TaskMetricsWire

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

func (a *TaskDoneArgs) wire(c *wirefmt.Codec) {
	c.Int64(&a.WorkerID)
	c.Int64(&a.DispatchID)
	c.String(&a.Err)
	c.Bool(&a.Transient)
	wirefmt.Slice(c, &a.LostMaps, 1, (*wirefmt.Codec).Int)
	c.Strings(&a.Out)
	wirefmt.Map(c, &a.Metrics.Counters, 2, (*wirefmt.Codec).Int64)
	wirefmt.Map(c, &a.Metrics.Observations, 2, (*wirefmt.Codec).Floats)
	for _, v := range [...]*int64{&a.LocalReads, &a.LocalBytes, &a.RemoteReads, &a.RemoteBytes} {
		c.Int64(v)
	}
	wirefmt.Slice(c, &a.Selected, 2, func(c *wirefmt.Codec, s *Selection) { s.wire(c) })
}

// wire lays a selection out as its block ordinal, then its ids
// delta-coded: each the gap to the one before, the first's to -1, so a run
// of neighbours takes a byte an id and a gap of 0 (ids not ascending) is
// malformed.
func (s *Selection) wire(c *wirefmt.Codec) {
	c.Int(&s.Block)
	wirefmt.Len(c, &s.IDs, 1)
	prev := -1
	for i := range s.IDs {
		gap := uint64(s.IDs[i] - prev)
		c.Uvarint(&gap)
		if c.Decoding() {
			if s.IDs[i] = prev + int(gap); s.IDs[i] <= prev { // a zero gap, or past MaxInt
				c.Fail("selected id gap %d after id %d", gap, prev)
				return
			}
		}
		prev = s.IDs[i]
	}
}

// TaskDoneReply acknowledges a completion report.
type TaskDoneReply struct{}

func (*TaskDoneReply) wire(*wirefmt.Codec) {}

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

func (a *FetchChunkArgs) wire(c *wirefmt.Codec) {
	c.Int64(&a.JobID)
	c.Int(&a.Task)
	c.Int(&a.Attempt)
	c.Int(&a.Reduce)
	c.Int64(&a.Offset)
	c.Int(&a.MaxBytes)
}

// FetchChunkReply carries one chunk of spill-stream bytes. EOF marks the
// last chunk; chunk boundaries are arbitrary — the reader reassembles
// sealed frames with a ShardStream, so integrity never depends on how
// the server happened to slice the file.
type FetchChunkReply struct {
	Data []byte
	EOF  bool
}

func (a *FetchChunkReply) wire(c *wirefmt.Codec) {
	c.Bytes(&a.Data)
	c.Bool(&a.EOF)
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
// (torn frame, or missing end-of-stream marker). A frame's payload is its
// batch (pairBatch).
func EncodeShard(pairs []Pair) []byte {
	var out []byte
	var c wirefmt.Codec
	for len(pairs) > 0 {
		batch := pairs[:min(shardBatchPairs, len(pairs))]
		c.Encode(c.Encoded()[:0])
		pairBatch(&c, &batch)
		out = append(out, dfs.SealShard(c.Encoded())...)
		pairs = pairs[len(batch):]
	}
	return append(out, dfs.SealShard(nil)...)
}

// pairBatch runs one batch's pair layout:
//
//	uvarint  pair count n, at least 1
//	n ×      uvarint key length, key, uvarint value length, value
//
// Decoding makes every key and value a substring of one copy of the
// payload.
func pairBatch(c *wirefmt.Codec, pairs *[]Pair) {
	wirefmt.Len(c, pairs, 2)
	c.Spans(2*len(*pairs), func(i int) *string {
		if i%2 == 0 {
			return &(*pairs)[i/2].Key
		}
		return &(*pairs)[i/2].Value
	})
}

// decodePairs opens one batch. A layout that disagrees with itself behind
// a valid seal is a torn frame, as in dfs/frame.go.
func decodePairs(payload []byte) ([]Pair, error) {
	var c wirefmt.Codec
	c.Decode(payload)
	var pairs []Pair
	pairBatch(&c, &pairs)
	if len(pairs) == 0 {
		c.Fail("empty pair batch")
	}
	if err := c.Done(); err != nil {
		return nil, &dfs.TornShardError{Reason: err.Error()}
	}
	return pairs, nil
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
		batch, err := decodePairs(payload)
		if err != nil {
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

func (a *ReadBlockArgs) wire(c *wirefmt.Codec) {
	c.Int64(&a.ID)
}

// ReadBlockReply carries the sealed block frame (dfs.EncodeBlockFrame);
// the reader unseals and decodes it, so a torn replica is detected at the
// consumer and the read falls through to the next source.
type ReadBlockReply struct {
	Frame []byte
}

func (a *ReadBlockReply) wire(c *wirefmt.Codec) {
	c.Bytes(&a.Frame)
}

// PushBlockArgs installs one sealed block replica on a worker — the
// master's replication (and re-replication) write path.
type PushBlockArgs struct {
	ID    int64
	Frame []byte
}

func (a *PushBlockArgs) wire(c *wirefmt.Codec) {
	c.Int64(&a.ID)
	c.Bytes(&a.Frame)
}

// PushBlockReply acknowledges a replica installation.
type PushBlockReply struct{}

func (*PushBlockReply) wire(*wirefmt.Codec) {}

// DropJobArgs tells a worker a job ended; the worker garbage-collects
// the job's spill directory.
type DropJobArgs struct {
	JobID int64
}

func (a *DropJobArgs) wire(c *wirefmt.Codec) {
	c.Int64(&a.JobID)
}

// DropJobReply acknowledges spill GC.
type DropJobReply struct{}

func (*DropJobReply) wire(*wirefmt.Codec) {}

// wireMore runs the split descriptors an exec call names after its first:
// a count, then each one behind wireMeta's presence byte. An absent one is
// malformed — a call names partitions, never holes.
func wireMore(c *wirefmt.Codec, more *[]*WireSplitMeta) {
	wirefmt.Slice(c, more, 1, func(c *wirefmt.Codec, m **WireSplitMeta) {
		wireMeta(c, m)
		if c.Decoding() && *m == nil {
			c.Fail("absent split descriptor")
		}
	})
}

// ExecRangeArgs asks a serving worker for its partitions' fragment of a
// range query: Meta, then every descriptor in More, each describing a
// split (with replica holders) so the worker can assemble it from its
// local replica store, falling through to peers and the master exactly
// like a map task; Epoch keys the worker's pinned tier so a rewrite can
// never be answered from a stale pin. Keys asks for the merge keys: the
// master wants them only when it merges the reply with another stream.
type ExecRangeArgs struct {
	File  string
	Epoch int64
	Meta  *WireSplitMeta
	More  []*WireSplitMeta
	Query geom.Rect
	Keys  bool
}

func (a *ExecRangeArgs) wire(c *wirefmt.Codec) {
	c.String(&a.File)
	c.Int64(&a.Epoch)
	wireMeta(c, &a.Meta)
	wireMore(c, &a.More)
	c.Rect(&a.Query)
	c.Bool(&a.Keys)
}

// ExecRangeReply carries the named partitions' matches merged into one
// sorted stream, the only shape a range fragment takes on the wire: Frag
// holds the points' JSON objects ({"x":..,"y":..} as encoding/json renders
// them, copied from the slots a point's first response wrote) comma-joined
// in canonical (X, then Y) order — an object ends at its first '}', so no
// offset table ships — and Keys, when the call asked for them, the merge
// keys x0,y0,x1,y1,… of the same points. Counts holds two numbers per named
// partition, in call order: its record count and its match count (the
// master mirrors the local engine's hotness and stats accounting with
// them). Decoding reuses Keys' and Frag's capacity, so a pooled reply
// allocates only to grow.
type ExecRangeReply struct {
	Keys   []float64
	Frag   []byte
	Counts []int64
}

func (a *ExecRangeReply) wire(c *wirefmt.Codec) {
	c.Floats(&a.Keys)
	c.Bytes(&a.Frag)
	c.Int64s(&a.Counts)
}

// rangeReplies recycles range replies, on both ends of ExecRange. The
// master takes one per call to decode into and releases it once the body
// that copies from it is encoded, or as soon as the call failed or was
// cancelled: once Peers.Call has returned, nothing writes the reply. A
// worker writes its answer into the capacity of one, and the server
// releases it once the handler has returned and the response frame, if
// any, is laid out.
var rangeReplies = sync.Pool{New: func() any { return new(ExecRangeReply) }}

// NewExecRangeReply takes a reply from the pool, its slices emptied but
// keeping their capacity.
func NewExecRangeReply() *ExecRangeReply {
	r := rangeReplies.Get().(*ExecRangeReply)
	r.Keys, r.Frag, r.Counts = r.Keys[:0], r.Frag[:0], r.Counts[:0]
	return r
}

// Release returns the reply to the pool. Nothing may read or write it
// afterwards.
func (a *ExecRangeReply) Release() { rangeReplies.Put(a) }

// ExecKNNArgs asks a serving worker for the tie-complete k-nearest
// candidate set of each partition it names (Meta, then More) — the
// per-worker half of the two-round kNN protocol. The master merges
// candidate sets from all consulted shards with the canonical (dist,
// point) comparator.
type ExecKNNArgs struct {
	File  string
	Epoch int64
	Meta  *WireSplitMeta
	More  []*WireSplitMeta
	Q     geom.Point
	K     int
}

func (a *ExecKNNArgs) wire(c *wirefmt.Codec) {
	c.String(&a.File)
	c.Int64(&a.Epoch)
	wireMeta(c, &a.Meta)
	wireMore(c, &a.More)
	c.Float(&a.Q.X)
	c.Float(&a.Q.Y)
	c.Int(&a.K)
}

// WireKNNCandidate is one (dist, point) candidate on the wire.
type WireKNNCandidate struct {
	Dist float64
	P    geom.Point
}

// ExecKNNReply carries the named partitions' candidate sets (each already
// sorted and truncated to k by the worker), concatenated in call order,
// plus Counts: two numbers per named partition, its record count and how
// many candidates it contributed. The candidates travel as columns — every
// distance, then every point.
type ExecKNNReply struct {
	Cands  []WireKNNCandidate
	Counts []int64
}

func (a *ExecKNNReply) wire(c *wirefmt.Codec) {
	wirefmt.Len(c, &a.Cands, 24)
	for i := range a.Cands {
		c.Float(&a.Cands[i].Dist)
	}
	for i := range a.Cands {
		c.Float(&a.Cands[i].P.X)
		c.Float(&a.Cands[i].P.Y)
	}
	c.Int64s(&a.Counts)
}
