package ops

import (
	"slices"
	"sync"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
)

// The per-partition step of the query plan: what a serving executor
// computes from pinned partitions, wherever they are pinned — on a worker
// holding replicas, or on the master for the partitions no worker holds
// (all of them under the local engine). Both run the same two functions,
// RangeStream and KNNSets, so their answers agree by construction.

// RangeFragment is a sorted match stream — the points' JSON objects plus,
// when asked for, their merge keys — and per-partition counts; it is the
// wire type.
type RangeFragment = mapreduce.ExecRangeReply

// idScratch pools RangeStream's ID buffers: the IDs die once the stream is
// built.
var idScratch = sync.Pool{New: func() any { return new([]int) }}

// PartitionRangePoints returns the pinned partition's points inside query
// as one sorted stream with its merge keys: RangeStream over one
// partition, kept for the benchmark harness's micro-levels. It fails like
// encoding/json on a coordinate JSON cannot carry (see appendMatches).
func PartitionRangePoints(part *LocalPartition, query geom.Rect) (out RangeFragment, err error) {
	err = RangeStream(&out, []*LocalPartition{part}, query, true)
	return out, err
}

// RangeStream writes into out — emptied first, keeping its capacity — the
// points of parts inside query, merged into one sorted stream (with merge
// keys when keys is set), and two counts per part, in order: its record
// count and its match count. It is what a serving executor answers a range
// call with, a worker's over the wire and the master's in process.
func RangeStream(out *RangeFragment, parts []*LocalPartition, query geom.Rect, keys bool) error {
	out.Keys, out.Frag, out.Counts = out.Keys[:0], out.Frag[:0], out.Counts[:0]
	scratch := idScratch.Get().(*[]int)
	defer idScratch.Put(scratch)
	ids := (*scratch)[:0]
	for _, part := range parts {
		from := len(ids)
		ids = part.Tree.Search(query, ids)
		out.Counts = append(out.Counts, int64(len(part.Pts)), int64(len(ids)-from))
	}
	*scratch = ids
	var stack [4]LocalMatch
	matches := stack[:0]
	for i, from := 0, 0; i < len(parts); i++ {
		to := from + int(out.Counts[2*i+1])
		if to > from {
			matches = append(matches, LocalMatch{Part: parts[i], IDs: ids[from:to]})
		}
		from = to
	}
	for _, m := range matches {
		m.Part.spell(m.IDs)
	}
	var keyDst *[]float64
	if keys {
		keyDst = &out.Keys
	}
	var err error
	out.Frag, err = appendMatches(out.Frag, keyDst, matches)
	return err
}

// spell makes every point of ids, ascending, ready: one whose bit is clear
// has its object written into its slot, the slots allocated on the
// partition's first use. The bits are read first, so a stream whose points
// earlier streams carried takes no lock. A writer holds mu, so each word is
// published with a plain Store. Keep to Load and Store here: with go1.24.0
// on amd64 the old value atomic.Uint64.Or returns is wrong — a program that
// marks 65 536 ids with Or, on one goroutine, sees 512 first marks where a
// CompareAndSwap loop sees them all — and a first version built on it
// segfaulted.
func (part *LocalPartition) spell(ids []int) {
	if part.spelled(ids) {
		return
	}
	part.mu.Lock()
	defer part.mu.Unlock()
	if part.slots == nil {
		part.slots = make([]byte, slotSize*len(part.Pts))
	}
	var obj [64]byte // the longest object, two 24-byte floats and 11 of framing, is 59
	w, word, set := -1, uint64(0), uint64(0)
	for _, id := range ids {
		if id>>6 != w {
			if set != 0 {
				part.ready[w].Store(word | set)
			}
			w, word, set = id>>6, part.ready[id>>6].Load(), 0
		}
		bit := uint64(1) << (id & 63)
		if word&bit != 0 {
			continue
		}
		if o, err := AppendPointJSON(obj[:0], part.Pts[id]); err == nil && len(o) < slotSize {
			slot := part.slots[slotSize*id : slotSize*(id+1)]
			slot[slotSize-1] = byte(copy(slot, o))
		}
		set |= bit
	}
	if set != 0 {
		part.ready[w].Store(word | set)
	}
}

// spelled reports whether every point of ids is ready.
func (part *LocalPartition) spelled(ids []int) bool {
	for _, id := range ids {
		if part.ready[id>>6].Load()&(1<<(id&63)) == 0 {
			return false
		}
	}
	return true
}

// object returns point id's object from its slot, empty when the point is
// formatted on every use (see slotSize). The point must be ready (spell).
func (part *LocalPartition) object(id int) []byte {
	slot := part.slots[slotSize*id : slotSize*(id+1)]
	return slot[:slot[slotSize-1]]
}

// appendMatches appends to b the inside of a response's points array for
// matches: a k-way merge by (X, then Y) whose point objects are copied from
// the partitions' slots, comma-joined (an object that fits no slot is
// formatted, failing like encoding/json on NaN/Inf). Every match must be
// ready (spell). When keys is not nil, each point's merge keys x, y are
// appended to *keys in the same order. This is the one merge of pinned
// matches: RangeStream is its only caller, so every executor's bytes agree
// by construction.
func appendMatches(b []byte, keys *[]float64, matches []LocalMatch) ([]byte, error) {
	n := 0
	for _, m := range matches {
		n += len(m.IDs)
	}
	// A slot holds at most slotSize-1 bytes of object, so with the commas
	// n slots bound the stream, but for the objects formatted on use,
	// which append grows for.
	b = slices.Grow(b, n*slotSize)
	var ks []float64
	if keys != nil {
		ks = slices.Grow(*keys, 2*n)
	}
	// heads[i] indexes matches[i].IDs; a linear min-scan per emit (a query
	// keeps a handful of partitions).
	var stack [8]int
	heads := stack[:0]
	if len(matches) > len(stack) {
		heads = make([]int, 0, len(matches))
	}
	heads = heads[:len(matches)]
	var err error
	for i := 0; i < n; i++ {
		best := 0
		if len(matches) > 1 {
			best = -1
			var bp geom.Point
			for j, m := range matches {
				if heads[j] == len(m.IDs) {
					continue
				}
				p := m.Part.Pts[m.IDs[heads[j]]]
				if best < 0 || p.X < bp.X || (p.X == bp.X && p.Y < bp.Y) {
					best, bp = j, p
				}
			}
		}
		m := matches[best]
		id := m.IDs[heads[best]]
		heads[best]++
		if i > 0 {
			b = append(b, ',')
		}
		p := m.Part.Pts[id]
		if keys != nil {
			ks = append(ks, p.X, p.Y)
		}
		if o := m.Part.object(id); len(o) > 0 {
			b = append(b, o...)
		} else if b, err = AppendPointJSON(b, p); err != nil {
			return nil, err
		}
	}
	if keys != nil {
		*keys = ks
	}
	return b, nil
}

// PartitionKNNCandidates returns the partition's k nearest candidates for
// q: tie-complete from the expanding slab (NearestWithTies), then
// canonically sorted and truncated to k.
func PartitionKNNCandidates(part *LocalPartition, q geom.Point, k int) []KNNCandidate {
	noms := part.Tree.NearestWithTies(q, k)
	out := make([]KNNCandidate, len(noms))
	for i, n := range noms {
		out[i] = KNNCandidate{Dist: n.dist, P: part.Pts[n.id]}
	}
	return sortCandidates(out, k)
}

// KNNSets appends to out each part's PartitionKNNCandidates for q,
// concatenated in order, and two counts per part: its record count and its
// candidate count. It is what a serving executor answers a kNN round's
// call with, a worker's over the wire and the master's in process.
func KNNSets(out *mapreduce.ExecKNNReply, parts []*LocalPartition, q geom.Point, k int) {
	for _, part := range parts {
		cands := PartitionKNNCandidates(part, q, k)
		out.Cands = append(out.Cands, cands...)
		out.Counts = append(out.Counts, int64(len(part.Pts)), int64(len(cands)))
	}
}
