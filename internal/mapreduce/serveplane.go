package mapreduce

import (
	"os"
	"syscall"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
)

// Serving-side routing exposure: the sharded serving engine (the master's
// HTTP planner) consults the data plane's placement table to scatter
// partition work to replica holders. These methods are the read-only view
// it needs — where each split's replicas live, in rendezvous order — plus
// the epoch feed heartbeats piggyback and the serve-phase chaos hook.

// EnsureServeReplicas places replicas of the splits' blocks on live
// workers (idempotent; blocks already placed are skipped). The serving
// engine calls it before scattering so a freshly indexed file gets its
// replicas on first query rather than first batch job. At replication 0
// it only registers the blocks, so the master can serve them.
func (m *Master) EnsureServeReplicas(splits []*Split) {
	m.plane.ensureReplicated(splits)
}

// ServeMeta builds the replica-aware split descriptor a worker needs to
// assemble the split from its replica store, falling through to peers and
// the master — what every map assignment and every serving exec call
// carries.
func (m *Master) ServeMeta(s *Split) *WireSplitMeta {
	return &WireSplitMeta{
		Partition:  s.Partition,
		MBR:        s.MBR,
		ContentMBR: s.ContentMBR,
		Tag:        s.Tag,
		Blocks:     m.plane.blockRefs(s),
	}
}

// ServeHolders returns the shard-serving addresses of live, serve-capable
// workers holding the split's replicas, in placement (rendezvous) order:
// the first entry is the scatter target, the rest the fallback ladder.
func (m *Master) ServeHolders(s *Split) []string {
	ids := m.plane.serveHolderIDs(s)
	out := make([]string, 0, len(ids))
	m.mu.Lock()
	for _, id := range ids {
		if ws := m.workers[id]; ws != nil && ws.live && ws.canServe {
			out = append(out, ws.addr)
		}
	}
	m.mu.Unlock()
	return out
}

// serveHolderIDs returns the split's replica holders in placement order:
// the first block's push order (rendezvous rank among the workers live at
// placement time) leads, holders of further blocks append. Order matters
// here — the rendezvous-first holder is the scatter target — and holdersFor
// re-sorts its result by id for the locality set.
func (p *dataPlane) serveHolderIDs(s *Split) []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []int64
	seen := map[int64]bool{}
	collect := func(b *dfs.Block) {
		pb := p.blocks[b.ID]
		if pb == nil {
			return
		}
		for _, id := range pb.holders {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	for _, b := range s.Blocks {
		collect(b)
	}
	for _, b := range s.Extra {
		collect(b)
	}
	return out
}

// SetEpochSource installs the callback whose snapshot of DFS file epochs
// the master embeds in heartbeat replies, so serving workers drop stale
// pinned partitions without a second control channel. The serving layer
// installs sys.FS().Epochs here; last install wins.
func (m *Master) SetEpochSource(fn func() map[string]int64) {
	m.mu.Lock()
	m.epochSrc = fn
	m.mu.Unlock()
}

// epochSnapshot invokes the installed epoch source (nil map when none).
func (m *Master) epochSnapshot() map[string]int64 {
	m.mu.Lock()
	fn := m.epochSrc
	m.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// MaybeKillServeTarget consults the fault plan's worker-kill mode for one
// scatter target of a sharded serving query (phase "serve", task = the
// candidate partition's index) and kills the addressed worker when the
// seeded decision fires — the chaos hook the serving fallback ladder is
// tested against. Decisions depend only on (plan, task), never on timing,
// so a soak replays deterministically.
func (m *Master) MaybeKillServeTarget(task int, addr string) {
	if !m.opts.EnableKill || addr == "" {
		return
	}
	in := m.c.Injector()
	if in == nil || !in.DecideKill("serve", task, 0) {
		return
	}
	var victim *workerState
	m.mu.Lock()
	for _, ws := range m.workers {
		if ws.live && ws.addr == addr {
			victim = ws
			break
		}
	}
	m.mu.Unlock()
	if victim == nil {
		return
	}
	m.flog.Append(fault.Event{Phase: "serve", Task: task, Kind: "worker-kill", Worker: victim.id})
	if kf := m.opts.KillFn; kf != nil {
		_ = kf(victim.pid)
		return
	}
	if victim.pid > 0 && victim.pid != os.Getpid() {
		_ = syscall.Kill(victim.pid, syscall.SIGKILL)
	}
}
