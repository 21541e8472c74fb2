package serve

import (
	"context"
	"sync"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
)

// The sharded engine: the master stays a thin router. It runs the query
// plan (ops.Plan — the same filter steps, rounds and merge as the local
// engine) and, as the plan's driver, scatters each kept partition to the
// worker holding its replica (rendezvous-first), falling back down a
// ladder — remaining replica holders, then pin-and-execute on the master
// — when a holder is lost mid-query. Workers answer from per-worker
// memory tiers keyed by (file, epoch, partition) with the plan's
// per-partition step, so the body is byte-identical to the local and
// MapReduce engines. A range fragment arrives as a finished piece of the
// body — the matches' pin-time JSON objects with their merge keys — and
// the gather is a k-way merge that copies bytes (encodeRangeBodyStreams).

// shardStats is one sharded query's scatter/gather accounting, surfaced
// through ?explain=1 and the serve.shard.* metric families.
type shardStats struct {
	fanout        int // partitions scattered (both kNN rounds summed)
	remote        int // fragments answered by a worker executor
	localExec     int // fragments executed on the master
	fallbackPeer  int // remote answers that skipped >=1 dead holder
	fallbackLocal int // local executions forced by holder loss
}

// shardFrag is one partition's fragment and how the ladder obtained it.
type shardFrag struct {
	stream   *ops.RangeFragment // range: the partition's sorted match stream
	cands    []ops.KNNCandidate // kNN: canonically sorted, truncated to k
	records  int64              // the partition's record count
	matches  int                // how many of them the fragment holds
	remote   bool               // answered by a worker executor
	fellBack bool               // at least one holder failed before the answer
}

func (sh *shardStats) tally(f shardFrag) {
	if f.remote {
		sh.remote++
		if f.fellBack {
			sh.fallbackPeer++
		}
	} else {
		sh.localExec++
		if f.fellBack {
			sh.fallbackLocal++
		}
	}
}

// shardTarget is one candidate partition's routing: its fallback ladder
// of holder addresses (placement order) and the replica-aware descriptor
// shipped with the exec call. Empty holders means master-local execution
// (no master runtime, replication 0, or no serve-capable holders).
type shardTarget struct {
	holders []string
	meta    *mapreduce.WireSplitMeta
}

// masterForServe resolves the cluster's master runtime (nil when serving
// in process) and keeps the heartbeat epoch feed installed so serving
// workers drop pins that DFS rewrites obsoleted.
func (s *Server) masterForServe() *mapreduce.Master {
	m := s.sys.Cluster().Master()
	if m != nil {
		m.SetEpochSource(s.sys.FS().Epochs)
	}
	return m
}

// scatterTargets plans the routing for the candidate partitions: replicas
// are ensured (idempotent), holders resolved in placement order, and the
// serve-phase chaos hook consulted sequentially per target — before any
// scatter goroutine launches — so kill decisions replay deterministically
// under a seeded fault plan.
func (s *Server) scatterTargets(m *mapreduce.Master, cand []*mapreduce.Split) []shardTarget {
	out := make([]shardTarget, len(cand))
	if m == nil {
		return out
	}
	m.EnsureServeReplicas(cand)
	for i, sp := range cand {
		holders := m.ServeHolders(sp)
		if len(holders) > 0 {
			m.MaybeKillServeTarget(i, holders[0])
		}
		out[i] = shardTarget{holders: holders, meta: m.ServeMeta(sp)}
	}
	return out
}

// shardCall is the per-query half of the ladder: how to ask a holder for
// a partition's fragment, and the same step over a master-side pin.
type shardCall struct {
	remote func(ctx context.Context, addr string, meta *mapreduce.WireSplitMeta) (shardFrag, error)
	local  func(part *ops.LocalPartition) (shardFrag, error)
}

// rangeReplies recycles range replies between queries — a reply decodes
// into its slices' capacity, which is most of a fragment's cost on the
// master. A reply is taken per exec call and released once the body that
// copies from it is encoded; the reply of a call that failed or was
// cancelled is never released — an abandoned call may still decode into it.
var rangeReplies = sync.Pool{New: func() any { return new(mapreduce.ExecRangeReply) }}

func (sq *shardQuery) rangeCall(rect geom.Rect) shardCall {
	return shardCall{
		remote: func(ctx context.Context, addr string, meta *mapreduce.WireSplitMeta) (shardFrag, error) {
			reply := rangeReplies.Get().(*mapreduce.ExecRangeReply)
			err := sq.m.Peers().Call(ctx, addr, mapreduce.ShardService+".ExecRange",
				&mapreduce.ExecRangeArgs{File: sq.gen.f.Name, Epoch: sq.gen.f.Epoch(), Meta: meta, Query: rect}, reply)
			return shardFrag{stream: reply, records: reply.Records, matches: len(reply.Keys) / 2}, err
		},
		local: func(part *ops.LocalPartition) (shardFrag, error) {
			stream, err := ops.PartitionRangePoints(part, rect)
			return shardFrag{stream: &stream, records: stream.Records, matches: len(stream.Keys) / 2}, err
		},
	}
}

func (sq *shardQuery) knnCall(q geom.Point, k int) shardCall {
	return shardCall{
		remote: func(ctx context.Context, addr string, meta *mapreduce.WireSplitMeta) (shardFrag, error) {
			var reply mapreduce.ExecKNNReply
			err := sq.m.Peers().Call(ctx, addr, mapreduce.ShardService+".ExecKNN",
				&mapreduce.ExecKNNArgs{File: sq.gen.f.Name, Epoch: sq.gen.f.Epoch(), Meta: meta, Q: q, K: k}, &reply)
			return shardFrag{cands: reply.Cands, records: reply.Records, matches: len(reply.Cands)}, err
		},
		local: func(part *ops.LocalPartition) (shardFrag, error) {
			cands := ops.PartitionKNNCandidates(part, q, k)
			return shardFrag{cands: cands, records: int64(len(part.Recs)), matches: len(cands)}, nil
		},
	}
}

// shardQuery is one sharded query: the plan it drives, where its
// fragments come from, and its scatter accounting.
type shardQuery struct {
	s     *Server
	m     *mapreduce.Master
	gen   *tierSource
	plan  *ops.Plan
	stats shardStats
}

// newShardQuery binds the plan to the generation the request opened. A nil
// query (with nil error) means the file is a heap — no partitions to
// scatter — and the caller should fall through to MapReduce.
func (s *Server) newShardQuery(f *dfs.File) (*shardQuery, error) {
	gen, err := s.mt.Source(f) // per request when the tier is off
	if gen == nil {
		return nil, err
	}
	return &shardQuery{s: s, m: s.masterForServe(), gen: gen, plan: ops.NewPlan(s.sys, gen.idx, gen.sf)}, nil
}

// fragment obtains one partition's fragment down the ladder: each holder
// in placement order, then master-local execution. A cancelled request
// stops where it is: its calls fail because the request ended, not because
// a holder died, so it neither counts an RPC error nor walks on to pin the
// partition on the master.
func (sq *shardQuery) fragment(ctx context.Context, tgt shardTarget, sp *mapreduce.Split, call shardCall) (shardFrag, error) {
	s := sq.s
	for hi, addr := range tgt.holders {
		start := time.Now()
		frag, err := call.remote(ctx, addr, tgt.meta)
		if ctx.Err() != nil {
			return shardFrag{}, ctx.Err()
		}
		if err != nil {
			s.reg.Inc("serve.shard.rpc.errors", 1)
			continue
		}
		s.reg.ObserveLabeled("serve.shard.latency_us", float64(time.Since(start).Microseconds()), "path", "remote")
		frag.remote, frag.fellBack = true, hi > 0
		return frag, nil
	}
	start := time.Now()
	part, err := sq.gen.Pin(sp)
	if err != nil {
		return shardFrag{}, err
	}
	s.reg.ObserveLabeled("serve.shard.latency_us", float64(time.Since(start).Microseconds()), "path", "local")
	frag, err := call.local(part)
	frag.fellBack = len(tgt.holders) > 0
	return frag, err
}

// scatter obtains the fragments of the plan's kept partitions, one ladder
// goroutine per partition, and reports them to the plan in split order. A
// cancelled request launches nothing.
func (sq *shardQuery) scatter(ctx context.Context, kept []*mapreduce.Split, call shardCall) ([]shardFrag, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sq.stats.fanout += len(kept)
	targets := sq.s.scatterTargets(sq.m, kept)
	frags := make([]shardFrag, len(kept))
	errs := make([]error, len(kept))
	var wg sync.WaitGroup
	for i, sp := range kept {
		wg.Add(1)
		go func(i int, sp *mapreduce.Split) {
			defer wg.Done()
			frags[i], errs[i] = sq.fragment(ctx, targets[i], sp, call)
		}(i, sp)
	}
	wg.Wait()
	for i, sp := range kept {
		if errs[i] != nil {
			return nil, errs[i]
		}
		sq.plan.Searched(sp, int(frags[i].records), frags[i].matches)
		sq.stats.tally(frags[i])
	}
	return frags, nil
}

// done publishes the query's scatter accounting and describes the
// execution.
func (sq *shardQuery) done() *execMeta {
	reg, sh := sq.s.reg, &sq.stats
	reg.Inc("serve.planner.sharded", 1)
	reg.Observe("serve.shard.fanout", float64(sh.fanout))
	if sh.remote > 0 {
		reg.Inc("serve.shard.exec.remote", int64(sh.remote))
	}
	if sh.localExec > 0 {
		reg.Inc("serve.shard.exec.local", int64(sh.localExec))
	}
	if sh.fallbackPeer > 0 {
		reg.Inc("serve.shard.fallback.peer", int64(sh.fallbackPeer))
	}
	if sh.fallbackLocal > 0 {
		reg.Inc("serve.shard.fallback.local", int64(sh.fallbackLocal))
	}
	return &execMeta{engine: PlannerSharded, local: &sq.plan.Stats, shard: sh}
}

// shardedRange executes a range query with the sharded engine and renders
// its body (canon is the rect's canonical text). A nil execMeta (with nil
// error) means heap file.
func (s *Server) shardedRange(ctx context.Context, f *dfs.File, canon string, rect geom.Rect) ([]byte, *execMeta, error) {
	sq, err := s.newShardQuery(f)
	if sq == nil {
		return nil, nil, err
	}
	kept, err := sq.plan.Range(ctx, rect)
	if err != nil {
		return nil, nil, err
	}
	frags, err := sq.scatter(ctx, kept, sq.rangeCall(rect))
	if err != nil {
		return nil, nil, err
	}
	body := encodeRangeBodyStreams(f.Name, canon, frags)
	for _, f := range frags {
		rangeReplies.Put(f.stream)
	}
	return body, sq.done(), nil
}

// shardedKNN executes a kNN query with the sharded engine: each round of
// the plan is one scatter. A nil execMeta (with nil error) means heap file.
func (s *Server) shardedKNN(ctx context.Context, f *dfs.File, q geom.Point, k int) ([]geom.Point, *execMeta, error) {
	sq, err := s.newShardQuery(f)
	if sq == nil {
		return nil, nil, err
	}
	call := sq.knnCall(q, k)
	pts, err := sq.plan.KNN(ctx, q, k, func(ctx context.Context, kept []*mapreduce.Split) ([]ops.KNNCandidate, error) {
		frags, err := sq.scatter(ctx, kept, call)
		var cands []ops.KNNCandidate
		for _, f := range frags {
			cands = append(cands, f.cands...)
		}
		return cands, err
	})
	if err != nil {
		return nil, nil, err
	}
	return pts, sq.done(), nil
}
