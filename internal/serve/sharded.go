package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
)

// The serving executor, one driver of the query plan for the local and
// sharded engines. The master runs the plan (ops.Plan — filter steps,
// rounds and merge) and, as its driver, asks each holder of a kept
// partition for the plan's per-partition step over every partition it
// leads: one exec call to each worker that is a partition's
// rendezvous-first replica holder, and one in-process call for the
// partitions with no remote holder, which the master answers from its own
// memory tier. The local engine is this executor with no master runtime,
// so the master is its only holder. A partition whose call fails falls
// back down its own ladder — remaining replica holders, then the master's
// call over that partition alone. Every holder runs the same step
// (ops.RangeStream, ops.KNNSets), so the body is byte-identical across
// engines by construction. A range answer arrives as a finished piece of
// the body — the matches' JSON objects, copied from the slots a point's
// first response wrote, merged by the holder — and the gather copies a
// lone stream whole, or k-way merges two or more over their merge keys,
// copying bytes (encodeRangeBodyStreams).

// shardStats is one query's scatter/gather accounting, surfaced through
// ?explain=1 and the serve.shard.* metric families by the sharded engine.
type shardStats struct {
	fanout        int // partitions scattered (both kNN rounds summed)
	calls         int // exec calls to workers, one per rendezvous-first holder (both rounds summed)
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

// release hands a range answer's pooled reply back.
func (f *shardFrag) release() {
	if f.stream != nil {
		f.stream.Release()
		f.stream = nil
	}
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
// shipped with the exec call. Empty holders means the master answers it
// (no master runtime, replication 0, or no serve-capable holders).
type shardTarget struct {
	holders []string
	meta    *mapreduce.WireSplitMeta
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

// shardCall is the per-query half of an exec call: how to ask a holder
// for the step over the partitions metas name, and the same step over
// partitions pinned on the master.
type shardCall struct {
	remote func(ctx context.Context, addr string, metas []*mapreduce.WireSplitMeta, keys bool) (shardFrag, error)
	local  func(parts []*ops.LocalPartition, keys bool) (shardFrag, error)
}

// rangeCall answers each call into a reply from the shared pool
// (mapreduce.NewExecRangeReply) — a worker's decoded, the master's written
// in process — released by execRange once the body that copies from it is
// encoded, or as soon as its call fails.
func (sq *shardQuery) rangeCall(rect geom.Rect) shardCall {
	return shardCall{
		remote: func(ctx context.Context, addr string, metas []*mapreduce.WireSplitMeta, keys bool) (shardFrag, error) {
			reply := mapreduce.NewExecRangeReply()
			err := sq.m.Peers().Call(ctx, addr, mapreduce.ShardService+".ExecRange",
				&mapreduce.ExecRangeArgs{File: sq.gen.f.Name, Epoch: sq.gen.f.Epoch(), Meta: metas[0], More: metas[1:], Query: rect, Keys: keys}, reply)
			return shardFrag{stream: reply, counts: reply.Counts}, err
		},
		local: func(parts []*ops.LocalPartition, keys bool) (shardFrag, error) {
			reply := mapreduce.NewExecRangeReply()
			err := ops.RangeStream(reply, parts, rect, keys)
			return shardFrag{stream: reply, counts: reply.Counts}, err
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
		local: func(parts []*ops.LocalPartition, _ bool) (shardFrag, error) {
			var reply mapreduce.ExecKNNReply
			ops.KNNSets(&reply, parts, q, k)
			return shardFrag{cands: reply.Cands, counts: reply.Counts}, nil
		},
	}
}

// shardQuery is one query on the serving executor: the engine it reports
// as, the plan it drives, where its fragments come from, and its scatter
// accounting.
type shardQuery struct {
	s      *Server
	engine string            // PlannerLocal or PlannerSharded
	m      *mapreduce.Master // nil under the local engine, or when serving in process
	gen    *tierSource
	plan   *ops.Plan
	stats  shardStats
}

// ask makes one exec call naming metas and validates the answer. A
// cancelled request reports its context's error: its call failed because
// the request ended, not because the holder died, so no RPC error is
// counted. The pooled reply of a call that failed or was cancelled goes
// back at once: once Call has returned, nothing writes it.
func (sq *shardQuery) ask(ctx context.Context, addr string, metas []*mapreduce.WireSplitMeta, keys bool, call shardCall) (shardFrag, error) {
	start := time.Now()
	frag, err := call.remote(ctx, addr, metas, keys)
	if err == nil {
		err = frag.check(len(metas), keys)
	}
	if err != nil || ctx.Err() != nil {
		frag.release()
		if ctx.Err() != nil {
			return shardFrag{}, ctx.Err()
		}
		sq.s.reg.Inc("serve.shard.rpc.errors", 1)
		return shardFrag{}, err
	}
	sq.s.reg.ObserveLabeled("serve.shard.latency_us", float64(time.Since(start).Microseconds()), "path", "remote")
	frag.remote = true
	return frag, nil
}

// master is the master's own call: it pins the kept partitions idx names
// through the generation's tier — concurrently, so cold loads overlap as
// workers' calls do — and runs the step over them in process, with no
// codec. Under the sharded engine each pin's time is a
// serve.shard.latency_us sample on the local path.
func (sq *shardQuery) master(kept []*mapreduce.Split, idx []int, keys bool, call shardCall) (shardFrag, error) {
	parts := make([]*ops.LocalPartition, len(idx))
	errs := make([]error, len(idx))
	pin := func(j int) {
		start := time.Now()
		parts[j], errs[j] = sq.gen.Pin(kept[idx[j]])
		if errs[j] == nil && sq.engine == PlannerSharded {
			sq.s.reg.ObserveLabeled("serve.shard.latency_us", float64(time.Since(start).Microseconds()), "path", "local")
		}
	}
	var wg sync.WaitGroup
	for j := 1; j < len(idx); j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pin(j)
		}()
	}
	pin(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return shardFrag{}, err
		}
	}
	frag, err := call.local(parts, keys)
	if err == nil {
		err = frag.check(len(idx), keys)
	}
	return frag, err
}

// fallback obtains the fragment of partition i, whose call failed, down
// its ladder: each remaining holder in placement order, then the master's
// call over it alone. The ladder always asks for keys: its answer is
// merged with others. A cancelled request stops where it is and pins
// nothing on the master.
func (sq *shardQuery) fallback(ctx context.Context, tgt shardTarget, kept []*mapreduce.Split, i int, call shardCall) (shardFrag, error) {
	for _, addr := range tgt.holders[1:] {
		frag, err := sq.ask(ctx, addr, []*mapreduce.WireSplitMeta{tgt.meta}, true, call)
		if ctx.Err() != nil {
			return shardFrag{}, ctx.Err()
		}
		if err == nil {
			frag.fellBack = true
			return frag, nil
		}
	}
	frag, err := sq.master(kept, []int{i}, true, call)
	frag.fellBack = true
	return frag, err
}

// byHolder groups the candidate partitions' indices, in split order, by
// rendezvous-first holder: one group per exec call to a worker, and
// apart, the partitions without holders, which the master answers. A
// partition is never routed to a holder other than its first to share a
// call: that would pin it on a second worker.
func byHolder(targets []shardTarget) (calls [][]int, master []int) {
	for i, tgt := range targets {
		if len(tgt.holders) == 0 {
			master = append(master, i)
			continue
		}
		g := len(calls)
		for j, other := range calls {
			if targets[other[0]].holders[0] == tgt.holders[0] {
				g = j
				break
			}
		}
		if g == len(calls) {
			calls = append(calls, nil)
		}
		calls[g] = append(calls[g], i)
	}
	return calls, master
}

// scatter obtains the fragments of the plan's kept partitions: one exec
// call per rendezvous-first holder, naming every partition it leads, and
// one call on the master, made on the calling goroutine while the others
// are in flight, for the partitions without holders. A worker's call that
// fails sends each of its partitions down its own ladder from the next
// holder. The calls ask for merge keys only when the gather will merge:
// when there are two calls or more, the master's included. Every
// partition is reported to the plan with its counts. A cancelled request
// launches nothing.
func (sq *shardQuery) scatter(ctx context.Context, kept []*mapreduce.Split, call shardCall) ([]shardFrag, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sq.stats.fanout += len(kept)
	targets := sq.s.scatterTargets(sq.m, kept)
	calls, master := byHolder(targets)
	sq.stats.calls += len(calls)
	keys := len(calls) > 1 || len(calls) == 1 && master != nil
	// One slot per partition: an answer sits in the slot of the first
	// partition it covers.
	frags := make([]shardFrag, len(kept))
	errs := make([]error, len(kept))
	var wg sync.WaitGroup
	for _, g := range calls {
		wg.Add(1)
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
				for _, i := range g {
					wg.Add(1)
					go func() {
						defer wg.Done()
						frags[i], errs[i] = sq.fallback(ctx, targets[i], kept, i, call)
						frags[i].parts = []int{i}
					}()
				}
			}
		}()
	}
	if master != nil {
		frags[master[0]], errs[master[0]] = sq.master(kept, master, keys, call)
		frags[master[0]].parts = master
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for i := range frags {
				frags[i].release()
			}
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

// done publishes the query's accounting and describes the execution. The
// local engine reports only its planner counter and the plan's stats: its
// one holder is the master, so there is no scatter to account for.
func (sq *shardQuery) done() *execMeta {
	meta := &execMeta{engine: sq.engine, stats: &sq.plan.Stats}
	reg, sh := sq.s.reg, &sq.stats
	if sq.engine == PlannerLocal {
		reg.Inc("serve.planner.local", 1)
		return meta
	}
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
	meta.shard = sh
	return meta
}

// execRange executes a range query and renders its body (canon is the
// rect's canonical text).
func (sq *shardQuery) execRange(ctx context.Context, canon string, rect geom.Rect) ([]byte, *execMeta, error) {
	kept, err := sq.plan.Range(ctx, rect)
	if err != nil {
		return nil, nil, err
	}
	frags, err := sq.scatter(ctx, kept, sq.rangeCall(rect))
	if err != nil {
		return nil, nil, err
	}
	body := encodeRangeBodyStreams(sq.gen.f.Name, canon, frags)
	for i := range frags {
		frags[i].release()
	}
	return body, sq.done(), nil
}

// execKNN executes a kNN query: each round of the plan is one scatter.
func (sq *shardQuery) execKNN(ctx context.Context, q geom.Point, k int) ([]geom.Point, *execMeta, error) {
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
