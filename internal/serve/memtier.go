package serve

import (
	"container/list"
	"math"
	"strconv"
	"sync"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/ops"
)

// MemTier is the serving layer's memory-resident read tier: partitions
// pinned as decoded points in sorted order, which is their index
// (ops.LocalPartition), under a byte budget with LRU eviction, plus one
// handle per file — the newest generation's opened index and splits
// (tierSource), resolved once instead of per request. Everything is keyed
// by (file, DFS epoch): each published generation of the file has its own
// epoch, so stale pinned data can never answer a fresh query even if the
// eager invalidation signal (the DFS epoch hook) were lost. The hook just
// frees the memory sooner.
type MemTier struct {
	budget int64
	reg    *obs.Registry

	mu      sync.Mutex
	lru     *list.List               // front = most recently used
	entries map[string]*list.Element // "file@epoch|partition" → *tierEntry
	pending map[string]*pinCall      // same key; pins in flight
	gens    map[string]*tierSource   // file → its newest generation's handle
	bytes   int64
}

type tierEntry struct {
	key   string
	file  string
	epoch int64
	part  *ops.LocalPartition
}

// pinCall deduplicates concurrent pins of the same partition: one loader
// decodes, everyone else waits for it.
type pinCall struct {
	done chan struct{}
	part *ops.LocalPartition
	err  error
}

// NewMemTier creates a tier with the given byte budget (> 0).
func NewMemTier(budget int64, reg *obs.Registry) *MemTier {
	return &MemTier{
		budget:  budget,
		reg:     reg,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		pending: make(map[string]*pinCall),
		gens:    make(map[string]*tierSource),
	}
}

func tierKey(file string, epoch int64, partition string) string {
	return file + "@" + strconv.FormatInt(epoch, 10) + "|" + partition
}

// Source returns the handle of the generation f — the splits the plan
// binds to, and the tier the master's executor call pins through —
// building it on the generation's first request. nil means a heap file.
// A handle never displaces a newer generation's: a request still holding
// an older one gets a private handle, as does every request when the tier
// is disabled (t == nil: no epoch hook that could retire a kept handle).
func (t *MemTier) Source(f *dfs.File) *tierSource {
	if f.Index == nil {
		return nil
	}
	if t != nil {
		t.mu.Lock()
		src := t.gens[f.Name]
		t.mu.Unlock()
		if src != nil && src.f == f {
			return src
		}
	}
	// Build outside the lock (the splits), then publish.
	src := &tierSource{t: t, f: f, idx: ops.NewIndexed(f)}
	if t == nil {
		return src
	}
	t.mu.Lock()
	switch cur := t.gens[f.Name]; {
	case cur == nil || cur.f.Epoch() < f.Epoch():
		t.gens[f.Name] = src
	case cur.f == f:
		src = cur // lost the race: share the winner's handle
	}
	t.mu.Unlock()
	return src
}

// PinPartition returns the partition's memory-resident form, loading it
// on a miss, deduplicating concurrent loads, and evicting
// least-recently-used partitions past the byte budget. The master's
// executor call pins through it (tierSource.Pin), and so does a worker's.
func (t *MemTier) PinPartition(file string, epoch int64, sp *mapreduce.Split) (*ops.LocalPartition, error) {
	key := tierKey(file, epoch, sp.Partition)
	t.mu.Lock()
	if el, ok := t.entries[key]; ok {
		t.lru.MoveToFront(el)
		t.mu.Unlock()
		t.reg.Inc("serve.memtier.hits", 1)
		return el.Value.(*tierEntry).part, nil
	}
	if c, ok := t.pending[key]; ok {
		t.mu.Unlock()
		<-c.done
		if c.err == nil {
			t.reg.Inc("serve.memtier.hits", 1)
		}
		return c.part, c.err
	}
	c := &pinCall{done: make(chan struct{})}
	t.pending[key] = c
	t.mu.Unlock()

	t.reg.Inc("serve.memtier.misses", 1)
	part, err := ops.PinSplit(sp)

	t.mu.Lock()
	delete(t.pending, key)
	c.part, c.err = part, err
	if err == nil {
		t.entries[key] = t.lru.PushFront(&tierEntry{key: key, file: file, epoch: epoch, part: part})
		t.bytes += part.Bytes
		t.evictLocked()
	}
	t.mu.Unlock()
	close(c.done)
	return part, err
}

// evictLocked drops LRU tail entries until the budget holds. The newest
// entry survives even when it alone exceeds the budget: the query that
// pinned it is using it right now, and evicting it would only thrash.
func (t *MemTier) evictLocked() {
	for t.bytes > t.budget && t.lru.Len() > 1 {
		el := t.lru.Back()
		e := el.Value.(*tierEntry)
		t.lru.Remove(el)
		delete(t.entries, e.key)
		t.bytes -= e.part.Bytes
		t.reg.Inc("serve.memtier.evictions", 1)
	}
}

// Invalidate eagerly drops every pinned partition of the file, across all
// epochs, and its generation handle. It is the DFS epoch hook target and
// must therefore never call back into the file system — it only touches
// the tier's own maps. Correctness does not depend on it running:
// epoch-keyed lookups already miss stale generations.
func (t *MemTier) Invalidate(file string) { t.DropStale(file, math.MaxInt64) }

// Lookup returns the partition when resident, touching LRU order — the
// worker executor's fast path, checked before it assembles blocks.
func (t *MemTier) Lookup(file string, epoch int64, partition string) (*ops.LocalPartition, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.entries[tierKey(file, epoch, partition)]
	if !ok {
		return nil, false
	}
	t.lru.MoveToFront(el)
	t.reg.Inc("serve.memtier.hits", 1)
	return el.Value.(*tierEntry).part, true
}

// DropStale drops every pinned partition and handle of the file whose
// epoch is older than epoch — the heartbeat-driven half of cross-worker
// invalidation (the master's heartbeat reply carries current epochs).
func (t *MemTier) DropStale(file string, epoch int64) {
	dropped := 0
	t.mu.Lock()
	for key, el := range t.entries {
		if e := el.Value.(*tierEntry); e.file == file && e.epoch < epoch {
			t.lru.Remove(el)
			delete(t.entries, key)
			t.bytes -= e.part.Bytes
			dropped++
		}
	}
	if g := t.gens[file]; g != nil && g.f.Epoch() < epoch {
		delete(t.gens, file)
	}
	t.mu.Unlock()
	if dropped > 0 {
		t.reg.Inc("serve.memtier.invalidations", int64(dropped))
	}
}

// Pinned reports whether the partition is currently resident (without
// touching LRU order — the planner peeks, it doesn't use).
func (t *MemTier) Pinned(file string, epoch int64, partition string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.entries[tierKey(file, epoch, partition)]
	return ok
}

// Stats returns the pinned partition count and byte footprint.
func (t *MemTier) Stats() (partitions int, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len(), t.bytes
}

// tierSource is one file generation resolved once: what a query plans
// over (idx) and pins through (Pin). A server without a memory tier
// builds one per request, with no tier.
type tierSource struct {
	t   *MemTier
	f   *dfs.File
	idx *ops.Indexed
}

// Pin returns the split's partition from the tier — cached and
// deduplicated — or decodes it per call when there is no tier.
func (src *tierSource) Pin(sp *mapreduce.Split) (*ops.LocalPartition, error) {
	if src.t == nil {
		return ops.PinSplit(sp)
	}
	return src.t.PinPartition(src.f.Name, src.f.Epoch(), sp)
}
