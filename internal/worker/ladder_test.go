package worker

import (
	"fmt"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
)

// TestBlockLadder pins the worker's only input path, block by block: own
// replica → peer holder → master, each rung verified by the reader, a
// block no rung produces failing transiently by name, and the assembled
// split keeping the descriptor's block order and Extra grouping — for both
// frame shapes: blocks 0–3 are text, blocks 4–6 were written through
// WritePoint and travel as columns. The master runs at replication 0, so
// the test places every replica itself and the master's egress counter
// tells which rung served a read.
func TestBlockLadder(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 64, DataNodes: 2})
	c := mapreduce.NewCluster(fs, 2)
	recs := make([]string, 40)
	for i := range recs {
		recs[i] = fmt.Sprintf("record-%02d", i)
	}
	if err := fs.WriteFile("in", recs); err != nil {
		t.Fatal(err)
	}
	pw, err := fs.Create("pts")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		pw.WritePoint(geomio.EncodePoint(geom.Point{X: float64(i) / 8, Y: -1e6 / float64(i+1)}))
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	splits, err := c.MakeSplits([]string{"in"})
	if err != nil || len(splits) < 4 {
		t.Fatalf("MakeSplits = %d splits, %v; want >= 4 one-block splits", len(splits), err)
	}
	ptSplits, err := c.MakeSplits([]string{"pts"})
	if err != nil || len(ptSplits) < 3 {
		t.Fatalf("MakeSplits = %d point splits, %v; want >= 3 one-block splits", len(ptSplits), err)
	}
	reg := obs.NewRegistry()
	m, err := c.StartMaster(mapreduce.MasterOptions{HeartbeatEvery: 5 * time.Millisecond, Lease: time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	start := func(pid int) *Worker {
		w, err := Start(Config{Master: m.Addr(), Dir: t.TempDir(), FakePID: pid})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		return w
	}
	w, peer := start(9401), start(9402)
	m.EnsureServeReplicas(append(splits[:4:4], ptSplits[:3]...)) // factor 0: registers the blocks with the master, pushes nothing
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadPeer := ln.Addr().String()
	ln.Close()

	blocks := []*dfs.Block{splits[0].Blocks[0], splits[1].Blocks[0], splits[2].Blocks[0], splits[3].Blocks[0],
		ptSplits[0].Blocks[0], ptSplits[1].Blocks[0], ptSplits[2].Blocks[0]}
	// shape is the tag of the frame a block travels in.
	shape := func(b *dfs.Block) byte {
		payload, err := dfs.UnsealShard(dfs.EncodeBlockFrame(b, false))
		if err != nil {
			t.Fatal(err)
		}
		return payload[0]
	}
	for i, b := range blocks {
		if want := map[bool]byte{false: dfs.FrameText, true: dfs.FrameColumn}[i >= 4]; shape(b) != want {
			t.Fatalf("block %d travels as %q, want %q", i, shape(b), want)
		}
	}
	ref := func(i int, extra bool, holders ...string) mapreduce.WireBlockRef {
		return mapreduce.WireBlockRef{ID: int64(blocks[i].ID), Extra: extra, Holders: holders}
	}
	install := func(on *Worker, i int) {
		if err := on.writeReplica(int64(blocks[i].ID), dfs.EncodeBlockFrame(blocks[i], false)); err != nil {
			t.Fatal(err)
		}
	}
	install(w, 0)
	install(w, 1)
	if err := os.WriteFile(w.replicaPath(int64(blocks[1].ID)), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	install(peer, 1)
	// Block 3's own replica is cut inside its length table and sealed
	// again: the CRC holds, only the layout check can tell.
	install(w, 3)
	install(peer, 3)
	whole, err := os.ReadFile(w.replicaPath(int64(blocks[3].ID)))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := dfs.UnsealShard(whole)
	if err != nil || blocks[3].NumRecords() < 3 {
		t.Fatalf("block 3: unseal = %v, %d records; want a table of >= 3 lengths", err, blocks[3].NumRecords())
	}
	if err := os.WriteFile(w.replicaPath(int64(blocks[3].ID)), dfs.SealShard(payload[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	// The same three states of an own replica, for a column: whole (4),
	// torn (5), and cut inside its column and sealed again (6).
	install(w, 4)
	install(w, 5)
	if err := os.WriteFile(w.replicaPath(int64(blocks[5].ID)), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	install(peer, 5)
	install(w, 6)
	install(peer, 6)
	if whole, err = os.ReadFile(w.replicaPath(int64(blocks[6].ID))); err != nil {
		t.Fatal(err)
	}
	if payload, err = dfs.UnsealShard(whole); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(w.replicaPath(int64(blocks[6].ID)), dfs.SealShard(payload[:len(payload)-8]), 0o644); err != nil {
		t.Fatal(err)
	}
	unknown := mapreduce.WireBlockRef{ID: 1 << 40}

	for _, tc := range []struct {
		name string
		refs []mapreduce.WireBlockRef
		// Expected Blocks and Extra groups, and which blocks were read from
		// the own store and which remotely, all as indexes into blocks.
		primary, extra, local, remote []int
		fromMaster                    bool // the master served at least one read
		wantErr                       string
	}{
		{name: "own replica hit", refs: []mapreduce.WireBlockRef{ref(0, false, w.Addr())},
			primary: []int{0}, local: []int{0}},
		{name: "torn own replica falls to a peer", refs: []mapreduce.WireBlockRef{ref(1, false, w.Addr(), peer.Addr())},
			primary: []int{1}, remote: []int{1}},
		{name: "own replica cut inside its length table falls to a peer", refs: []mapreduce.WireBlockRef{ref(3, false, w.Addr(), peer.Addr())},
			primary: []int{3}, remote: []int{3}},
		{name: "dead peer falls to the master", refs: []mapreduce.WireBlockRef{ref(2, false, deadPeer)},
			primary: []int{2}, remote: []int{2}, fromMaster: true},
		{name: "own column replica hit", refs: []mapreduce.WireBlockRef{ref(4, false, w.Addr())},
			primary: []int{4}, local: []int{4}},
		{name: "torn own column replica falls to a peer", refs: []mapreduce.WireBlockRef{ref(5, false, w.Addr(), peer.Addr())},
			primary: []int{5}, remote: []int{5}},
		{name: "own column replica cut inside a point falls to a peer", refs: []mapreduce.WireBlockRef{ref(6, false, w.Addr(), peer.Addr())},
			primary: []int{6}, remote: []int{6}},
		{name: "column from the master, beside text", refs: []mapreduce.WireBlockRef{ref(5, false, deadPeer), ref(0, true), ref(4, true)},
			primary: []int{5}, extra: []int{0, 4}, local: []int{0, 4}, remote: []int{5}, fromMaster: true},
		{name: "block unknown to the master", refs: []mapreduce.WireBlockRef{ref(0, false), unknown},
			wantErr: fmt.Sprintf("block %d", unknown.ID)},
		{name: "order and Extra grouping", refs: []mapreduce.WireBlockRef{ref(2, false), ref(0, true), ref(1, false, peer.Addr())},
			primary: []int{2, 1}, extra: []int{0}, local: []int{0}, remote: []int{2, 1}, fromMaster: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			egress := reg.Counter(mapreduce.MetricMasterEgress)
			sp, st, err := w.assembleSplit(&mapreduce.WireSplitMeta{Partition: "p", Tag: "tag", Blocks: tc.refs})
			if tc.wantErr != "" {
				if err == nil || !fault.IsTransient(err) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("assembleSplit = %v, want a transient error naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if sp.Partition != "p" || sp.Tag != "tag" {
				t.Errorf("split shape = %q/%q, want the descriptor's", sp.Partition, sp.Tag)
			}
			check := func(got []*dfs.Block, want []int, group string) {
				if len(got) != len(want) {
					t.Fatalf("%s has %d blocks, want %d", group, len(got), len(want))
				}
				for i, bi := range want {
					if shape(got[i]) != shape(blocks[bi]) {
						t.Errorf("%s[%d] was opened as %q, block %d travels as %q", group, i, shape(got[i]), bi, shape(blocks[bi]))
					}
					if err := got[i].VerifyCached(); err != nil {
						t.Errorf("%s[%d]: %v", group, i, err)
					}
					if !reflect.DeepEqual(got[i].Records(), blocks[bi].Records()) || got[i].Bytes != blocks[bi].Bytes {
						t.Errorf("%s[%d] is not block %d's records", group, i, bi)
					}
				}
			}
			check(sp.Blocks, tc.primary, "Blocks")
			check(sp.Extra, tc.extra, "Extra")
			want := readStats{localReads: int64(len(tc.local)), remoteReads: int64(len(tc.remote))}
			for _, bi := range tc.local {
				want.localBytes += blocks[bi].Bytes
			}
			for _, bi := range tc.remote {
				want.remoteBytes += blocks[bi].Bytes
			}
			if st != want {
				t.Errorf("readStats = %+v, want %+v", st, want)
			}
			if served := reg.Counter(mapreduce.MetricMasterEgress) - egress; (served > 0) != tc.fromMaster {
				t.Errorf("master shipped %d bytes, want a master-served read = %v", served, tc.fromMaster)
			}
		})
	}

	// A worker holding nothing — the whole pool at replication 0 — reads
	// every block from the master: all remote, byte for byte.
	t.Run("replication 0 is all remote", func(t *testing.T) {
		empty := start(9403)
		whole := &mapreduce.Split{Blocks: []*dfs.Block{blocks[0], blocks[2], blocks[4]}, Extra: blocks[1:2]}
		sp, st, err := empty.assembleSplit(m.ServeMeta(whole))
		if err != nil {
			t.Fatal(err)
		}
		if want := (readStats{remoteReads: 4, remoteBytes: blocks[0].Bytes + blocks[1].Bytes + blocks[2].Bytes + blocks[4].Bytes}); st != want {
			t.Errorf("readStats = %+v, want %+v", st, want)
		}
		if !reflect.DeepEqual(sp.Records(), whole.Records()) || !reflect.DeepEqual(sp.ExtraRecords(), whole.ExtraRecords()) {
			t.Error("assembled split differs from the master's")
		}
	})
}
