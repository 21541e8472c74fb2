package mapreduce

import (
	"fmt"
	"sort"
	"sync"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
)

// The master-side data plane: which worker holds a sealed replica of
// which DFS block. When a job starts on the worker pool, every block of
// its splits is registered and pushed (once — block ids are monotone and
// blocks are immutable once sealed) to Replication workers chosen by
// rendezvous placement, spatial-partition groups co-locating. Map
// dispatches then carry the holder set, the dispatch queue prefers
// holders, and workers read input locally or peer-to-peer; the master
// serves a block itself as the last rung — the only one at replication
// 0, which places no replicas. When a worker's lease expires, the blocks
// it held are re-replicated onto the survivors so the replica factor
// recovers without touching the job path.

// Data-plane metric names, written to the master's system registry —
// never to job registries, so remote and in-process runs keep identical
// job counter sets (the byte-identity contract).
const (
	// MetricDFSLocalReads / MetricDFSLocalBytes count map-input blocks
	// (and their record bytes) served from the reading worker's own
	// replica store; the Remote pair counts peer and master reads.
	// Exported as shadoop_dfs_local_reads_total etc.
	MetricDFSLocalReads  = "dfs.local.reads"
	MetricDFSLocalBytes  = "dfs.local.read.bytes"
	MetricDFSRemoteReads = "dfs.remote.reads"
	MetricDFSRemoteBytes = "dfs.remote.read.bytes"
	// MetricMasterEgress totals data bytes the master itself shipped:
	// block frames, shard chunks, replica pushes. The number replication
	// exists to shrink.
	MetricMasterEgress = "dfs.master.egress.bytes"
	// MetricRereplications counts replicas re-pushed after worker loss.
	MetricRereplications = "dfs.rereplications"
	// MetricTasksDispatched counts task assignments handed to workers;
	// MetricDispatchLocal/Nonlocal split map assignments by whether the
	// assignee held a replica of its split.
	MetricTasksDispatched  = "mr.tasks.dispatched"
	MetricDispatchLocal    = "mr.dispatch.local"
	MetricDispatchNonlocal = "mr.dispatch.nonlocal"
)

// planeBlock is the data plane's record of one block. It keeps the block
// it was shown, not a sealed copy: a frame is sealed when one is pushed
// or served, so the master never retains a second encoding of its DFS.
type planeBlock struct {
	block   *dfs.Block
	holders []int64
}

// dataPlane tracks replica placement for one master.
type dataPlane struct {
	m      *Master
	policy dfs.ReplicaPolicy

	mu     sync.Mutex
	blocks map[dfs.BlockID]*planeBlock
}

// placementSeed seeds rendezvous replica placement: fixed, so a replayed
// run places identically.
const placementSeed = 1

func newDataPlane(m *Master, replication int) *dataPlane {
	return &dataPlane{
		m:      m,
		policy: dfs.ReplicaPolicy{Seed: placementSeed, Factor: replication},
		blocks: make(map[dfs.BlockID]*planeBlock),
	}
}

// ensureReplicated registers every not-yet-seen block of the given splits
// and pushes its replicas, called once per job at run registration. Push
// failures are tolerated: a holder that never got its replica simply
// isn't recorded, and readers fall through to the master.
func (p *dataPlane) ensureReplicated(splits []*Split) {
	for _, s := range splits {
		for _, b := range s.Blocks {
			p.ensureBlock(b)
		}
		for _, b := range s.Extra {
			p.ensureBlock(b)
		}
	}
}

// ensureBlock places and pushes one block if the plane has never seen it.
func (p *dataPlane) ensureBlock(b *dfs.Block) {
	p.mu.Lock()
	if _, ok := p.blocks[b.ID]; ok {
		p.mu.Unlock()
		return
	}
	pb := &planeBlock{block: b}
	p.blocks[b.ID] = pb
	p.mu.Unlock()

	targets := p.policy.Place(dfs.PlacementGroup(b.Partition, b.ID), p.m.liveWorkerIDs())
	if len(targets) == 0 {
		return // replication 0: the master serves the block
	}
	// One-shot: a point block's column is parsed here, once, and not kept.
	frame := dfs.EncodeBlockFrame(b, false)
	for _, id := range targets {
		if p.pushTo(id, b.ID, frame) {
			p.mu.Lock()
			pb.holders = append(pb.holders, id)
			p.mu.Unlock()
			p.m.flog.Append(fault.Event{Phase: "dfs", Task: int(b.ID), Kind: "replicate", Worker: id})
		}
	}
}

// pushTo installs one replica on one worker, best-effort — under the
// master's lifetime, not the job's or request's that first showed it the
// block: a block is placed once, and nothing retries a cancelled push.
func (p *dataPlane) pushTo(workerID int64, id dfs.BlockID, frame []byte) bool {
	addr := p.m.workerAddr(workerID)
	if addr == "" {
		return false
	}
	args := PushBlockArgs{ID: int64(id), Frame: frame}
	if err := p.m.peers.Call(p.m.ctx, addr, ShardService+".PushBlock", args, &PushBlockReply{}); err != nil {
		return false
	}
	if r := p.m.opts.Metrics; r != nil {
		r.Inc(MetricMasterEgress, int64(len(frame)))
	}
	return true
}

// holdersFor returns the ids of every worker holding a replica of some
// block of the split — the dispatch queue's locality set.
func (p *dataPlane) holdersFor(s *Split) []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	set := map[int64]bool{}
	collect := func(b *dfs.Block) {
		if pb := p.blocks[b.ID]; pb != nil {
			for _, id := range pb.holders {
				set[id] = true
			}
		}
	}
	for _, b := range s.Blocks {
		collect(b)
	}
	for _, b := range s.Extra {
		collect(b)
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]int64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// blockRefs builds the per-block replica directory shipped in a map
// assignment, resolving holder ids to live shard-serving addresses.
func (p *dataPlane) blockRefs(s *Split) []WireBlockRef {
	refs := make([]WireBlockRef, 0, len(s.Blocks)+len(s.Extra))
	add := func(b *dfs.Block, extra bool) {
		ref := WireBlockRef{ID: int64(b.ID), Partition: b.Partition, Extra: extra}
		p.mu.Lock()
		pb := p.blocks[b.ID]
		var holders []int64
		if pb != nil {
			holders = append(holders, pb.holders...)
		}
		p.mu.Unlock()
		for _, id := range holders {
			if addr := p.m.workerAddr(id); addr != "" {
				ref.Holders = append(ref.Holders, addr)
			}
		}
		refs = append(refs, ref)
	}
	for _, b := range s.Blocks {
		add(b, false)
	}
	for _, b := range s.Extra {
		add(b, true)
	}
	return refs
}

// readFrame seals one registered block for the master's ReadBlock — the
// source for a worker that reached no replica, and at replication 0 of
// every map attempt: the rung repeats, so a point block is parsed once,
// through its Points cache, and not per read.
func (p *dataPlane) readFrame(id dfs.BlockID) ([]byte, error) {
	p.mu.Lock()
	pb := p.blocks[id]
	p.mu.Unlock()
	if pb == nil {
		return nil, fmt.Errorf("mapreduce: master holds no block %d", id)
	}
	return dfs.EncodeBlockFrame(pb.block, true), nil
}

// onWorkerLost re-replicates every block the dead worker held onto
// surviving workers, restoring the replica factor. Runs on the lease
// monitor's path, after the worker was already marked dead, so the
// placement excludes it naturally.
func (p *dataPlane) onWorkerLost(workerID int64) {
	var lost []*planeBlock
	p.mu.Lock()
	for _, pb := range p.blocks {
		for i, h := range pb.holders {
			if h == workerID {
				pb.holders = append(pb.holders[:i], pb.holders[i+1:]...)
				lost = append(lost, pb)
				break
			}
		}
	}
	p.mu.Unlock()

	live := p.m.liveWorkerIDs()
	for _, pb := range lost {
		b := pb.block
		p.mu.Lock()
		missing := p.policy.Factor - len(pb.holders)
		current := map[int64]bool{}
		for _, h := range pb.holders {
			current[h] = true
		}
		p.mu.Unlock()
		// Rank the survivors for this block's group; the first non-holders
		// are the re-replication targets, so placement stays deterministic.
		var frame []byte
		for _, id := range p.policy.Place(dfs.PlacementGroup(b.Partition, b.ID), live) {
			if missing <= 0 {
				break
			}
			if current[id] {
				continue
			}
			if frame == nil {
				frame = dfs.EncodeBlockFrame(b, false) // one-shot, as in ensureBlock
			}
			if p.pushTo(id, b.ID, frame) {
				p.mu.Lock()
				pb.holders = append(pb.holders, id)
				p.mu.Unlock()
				missing--
				if reg := p.m.opts.Metrics; reg != nil {
					reg.Inc(MetricRereplications, 1)
				}
				p.m.flog.Append(fault.Event{Phase: "dfs", Task: int(b.ID), Kind: "re-replicate", Worker: id})
			}
		}
	}
}
