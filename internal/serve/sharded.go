package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
)

// The sharded engine: the master stays a thin router. It runs the query
// plan (ops.Plan — the same filter steps, rounds and merge as the local
// engine) and, as the plan's driver, sends one exec call to each worker
// that is the rendezvous-first replica holder of a kept partition, naming
// all of them; a partition whose call fails falls back down its own
// ladder — remaining replica holders, then pin-and-execute on the master.
// Workers answer from per-worker memory tiers keyed by (file, epoch,
// partition) with the plan's step, so the body is byte-identical to the
// local and MapReduce engines. A range answer arrives as a finished piece
// of the body — the matches' pin-time JSON objects, merged on the worker —
// and the gather copies a lone stream whole, or k-way merges two or more
// over their merge keys, copying bytes (encodeRangeBodyStreams).

// shardStats is one sharded query's scatter/gather accounting, surfaced
// through ?explain=1 and the serve.shard.* metric families.
type shardStats struct {
	fanout        int // partitions scattered (both kNN rounds summed)
	calls         int // exec calls scattered, one per rendezvous-first holder (both rounds summed)
	remote        int // partitions answered by a worker executor
	localExec     int // partitions executed on the master
	fallbackPeer  int // remote answers that skipped >=1 dead holder
	fallbackLocal int // local executions forced by holder loss
}

// shardFrag is one answer — a call's or a ladder rung's — and how the
// ladder obtained it. It covers one or more partitions: counts holds their
// (records, matches) pairs in the order they were named.
type shardFrag struct {
	stream   *ops.RangeFragment // range: the partitions' merged sorted stream
	cands    []ops.KNNCandidate // kNN: each partition's sorted candidates, concatenated
	counts   []int64
	parts    []int // the kept partitions covered, by index, in counts' order
	matches  int   // the sum of counts' matches
	remote   bool  // answered by a worker executor
	fellBack bool  // at least one holder failed before the answer
}

// check validates an answer naming named partitions: two counts each, none
// negative, summing to what the stream's keys (when asked for) or the
// candidates hold. A reply that fails it is a failed call.
func (f *shardFrag) check(named int, keys bool) error {
	if len(f.counts) != 2*named {
		return fmt.Errorf("serve: %d counts for %d partitions", len(f.counts), named)
	}
	f.matches = 0
	for i, c := range f.counts {
		if c < 0 {
			return fmt.Errorf("serve: negative count %d", c)
		}
		f.matches += i % 2 * int(c)
	}
	if f.stream == nil && len(f.cands) != f.matches || f.stream != nil && keys && len(f.stream.Keys) != 2*f.matches {
		return fmt.Errorf("serve: an answer disagrees with its %d counted matches", f.matches)
	}
	return nil
}

// tally counts one partition the answer f covers.
func (sh *shardStats) tally(f *shardFrag) {
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
// the fragment of the partitions metas name, and the same step over one
// master-side pin.
type shardCall struct {
	remote func(ctx context.Context, addr string, metas []*mapreduce.WireSplitMeta, keys bool) (shardFrag, error)
	local  func(part *ops.LocalPartition) (shardFrag, error)
}

// rangeCall decodes each call's stream into a reply from the shared pool
// (mapreduce.NewExecRangeReply), released by shardedRange once the body
// that copies from it is encoded.
func (sq *shardQuery) rangeCall(rect geom.Rect) shardCall {
	return shardCall{
		remote: func(ctx context.Context, addr string, metas []*mapreduce.WireSplitMeta, keys bool) (shardFrag, error) {
			reply := mapreduce.NewExecRangeReply()
			err := sq.m.Peers().Call(ctx, addr, mapreduce.ShardService+".ExecRange",
				&mapreduce.ExecRangeArgs{File: sq.gen.f.Name, Epoch: sq.gen.f.Epoch(), Meta: metas[0], More: metas[1:], Query: rect, Keys: keys}, reply)
			return shardFrag{stream: reply, counts: reply.Counts}, err
		},
		local: func(part *ops.LocalPartition) (shardFrag, error) {
			stream, err := ops.PartitionRangePoints(part, rect)
			return shardFrag{stream: &stream, counts: stream.Counts}, err
		},
	}
}

func (sq *shardQuery) knnCall(q geom.Point, k int) shardCall {
	return shardCall{
		remote: func(ctx context.Context, addr string, metas []*mapreduce.WireSplitMeta, _ bool) (shardFrag, error) {
			var reply mapreduce.ExecKNNReply
			err := sq.m.Peers().Call(ctx, addr, mapreduce.ShardService+".ExecKNN",
				&mapreduce.ExecKNNArgs{File: sq.gen.f.Name, Epoch: sq.gen.f.Epoch(), Meta: metas[0], More: metas[1:], Q: q, K: k}, &reply)
			return shardFrag{cands: reply.Cands, counts: reply.Counts}, err
		},
		local: func(part *ops.LocalPartition) (shardFrag, error) {
			cands := ops.PartitionKNNCandidates(part, q, k)
			return shardFrag{cands: cands, counts: []int64{int64(len(part.Pts)), int64(len(cands))}}, nil
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
// query means the file is a heap — no partitions to scatter — and the
// caller should fall through to MapReduce.
func (s *Server) newShardQuery(f *dfs.File) *shardQuery {
	gen := s.mt.Source(f) // per request when the tier is off
	if gen == nil {
		return nil
	}
	return &shardQuery{s: s, m: s.masterForServe(), gen: gen, plan: ops.NewPlan(s.sys, gen.idx, gen.sf)}
}

// ask makes one exec call naming metas and validates the answer. A
// cancelled request reports its context's error: its call failed because
// the request ended, not because the holder died, so no RPC error is
// counted.
func (sq *shardQuery) ask(ctx context.Context, addr string, metas []*mapreduce.WireSplitMeta, keys bool, call shardCall) (shardFrag, error) {
	start := time.Now()
	frag, err := call.remote(ctx, addr, metas, keys)
	if ctx.Err() != nil {
		return shardFrag{}, ctx.Err()
	}
	if err == nil {
		err = frag.check(len(metas), keys)
	}
	if err != nil {
		sq.s.reg.Inc("serve.shard.rpc.errors", 1)
		return shardFrag{}, err
	}
	sq.s.reg.ObserveLabeled("serve.shard.latency_us", float64(time.Since(start).Microseconds()), "path", "remote")
	frag.remote = true
	return frag, nil
}

// fragment obtains one partition's fragment down the ladder: each holder
// in placement order from the from-th, then master-local execution. The
// ladder always asks for keys: its answer is merged with others. A
// cancelled request stops where it is and pins nothing on the master.
func (sq *shardQuery) fragment(ctx context.Context, tgt shardTarget, sp *mapreduce.Split, from int, call shardCall) (shardFrag, error) {
	for hi := from; hi < len(tgt.holders); hi++ {
		frag, err := sq.ask(ctx, tgt.holders[hi], []*mapreduce.WireSplitMeta{tgt.meta}, true, call)
		if ctx.Err() != nil {
			return shardFrag{}, ctx.Err()
		}
		if err == nil {
			frag.fellBack = hi > 0
			return frag, nil
		}
	}
	start := time.Now()
	part, err := sq.gen.Pin(sp)
	if err != nil {
		return shardFrag{}, err
	}
	sq.s.reg.ObserveLabeled("serve.shard.latency_us", float64(time.Since(start).Microseconds()), "path", "local")
	frag, err := call.local(part)
	if err == nil {
		err = frag.check(1, true)
	}
	frag.fellBack = len(tgt.holders) > 0
	return frag, err
}

// byHolder groups the candidate partitions' indices, in split order, by
// rendezvous-first holder: one group per exec call. A partition without
// holders is a group of its own, executed on the master. A partition is
// never routed to a holder other than its first to share a call: that
// would pin it on a second worker.
func byHolder(targets []shardTarget) [][]int {
	var groups [][]int
	for i, tgt := range targets {
		g := len(groups)
		if len(tgt.holders) > 0 {
			for j, other := range groups {
				if h := targets[other[0]].holders; len(h) > 0 && h[0] == tgt.holders[0] {
					g = j
					break
				}
			}
		}
		if g == len(groups) {
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// scatter obtains the fragments of the plan's kept partitions: one exec
// call per rendezvous-first holder, naming every partition it leads, and a
// ladder of its own for each partition without holders. A call that fails
// sends each of its partitions down its own ladder from the next holder.
// The calls ask for merge keys only when the gather will merge: when there
// are two streams or more. Every partition is reported to the plan with
// its counts. A cancelled request launches nothing.
func (sq *shardQuery) scatter(ctx context.Context, kept []*mapreduce.Split, call shardCall) ([]shardFrag, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sq.stats.fanout += len(kept)
	targets := sq.s.scatterTargets(sq.m, kept)
	groups := byHolder(targets)
	keys := len(groups) > 1
	// One slot per partition: an answer sits in the slot of the first
	// partition it covers.
	frags := make([]shardFrag, len(kept))
	errs := make([]error, len(kept))
	var wg sync.WaitGroup
	ladder := func(parts []int, from int) {
		defer wg.Done()
		i := parts[0]
		frags[i], errs[i] = sq.fragment(ctx, targets[i], kept[i], from, call)
		frags[i].parts = parts
	}
	for _, g := range groups {
		wg.Add(1)
		if len(targets[g[0]].holders) == 0 {
			go ladder(g, 0)
			continue
		}
		sq.stats.calls++
		go func() {
			defer wg.Done()
			metas := make([]*mapreduce.WireSplitMeta, len(g))
			for j, i := range g {
				metas[j] = targets[i].meta
			}
			frag, err := sq.ask(ctx, targets[g[0]].holders[0], metas, keys, call)
			switch {
			case ctx.Err() != nil:
				errs[g[0]] = ctx.Err()
			case err == nil:
				frag.parts = g
				frags[g[0]] = frag
			default:
				for j := range g {
					wg.Add(1)
					go ladder(g[j:j+1], 1)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := frags[:0]
	for _, f := range frags {
		for j, i := range f.parts {
			sq.plan.Searched(kept[i], int(f.counts[2*j]), int(f.counts[2*j+1]))
			sq.stats.tally(&f)
		}
		if f.parts != nil {
			out = append(out, f)
		}
	}
	return out, nil
}

// done publishes the query's scatter accounting and describes the
// execution.
func (sq *shardQuery) done() *execMeta {
	reg, sh := sq.s.reg, &sq.stats
	reg.Inc("serve.planner.sharded", 1)
	reg.Observe("serve.shard.fanout", float64(sh.fanout))
	reg.Observe("serve.shard.calls", float64(sh.calls))
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
	return &execMeta{engine: PlannerSharded, stats: &sq.plan.Stats, shard: sh}
}

// shardedRange executes a range query with the sharded engine and renders
// its body (canon is the rect's canonical text). A nil execMeta (with nil
// error) means heap file.
func (s *Server) shardedRange(ctx context.Context, f *dfs.File, canon string, rect geom.Rect) ([]byte, *execMeta, error) {
	sq := s.newShardQuery(f)
	if sq == nil {
		return nil, nil, nil
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
		f.stream.Release()
	}
	return body, sq.done(), nil
}

// shardedKNN executes a kNN query with the sharded engine: each round of
// the plan is one scatter. A nil execMeta (with nil error) means heap file.
func (s *Server) shardedKNN(ctx context.Context, f *dfs.File, q geom.Point, k int) ([]geom.Point, *execMeta, error) {
	sq := s.newShardQuery(f)
	if sq == nil {
		return nil, nil, nil
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
