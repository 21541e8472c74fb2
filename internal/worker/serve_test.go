package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/rpc"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

// startExecWorkers loads a clustered point file under a master at
// replication 2 and starts two workers on it: one serving executor and one
// plain worker. It returns their addresses once both registered.
func startExecWorkers(t *testing.T) (sys *core.System, f *core.IndexedFile, m *mapreduce.Master, serving, plain string) {
	t.Helper()
	sys = core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 7})
	area := geom.NewRect(0, 0, 1000, 1000)
	f, err := sys.LoadPoints("pts", datagen.Points(datagen.Clustered, 2000, area, 3), sindex.STRPlus)
	if err != nil {
		t.Fatal(err)
	}
	m, err = sys.Cluster().StartMaster(mapreduce.MasterOptions{
		HeartbeatEvery: 5 * time.Millisecond,
		Lease:          time.Second,
		Replication:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	start := func(serve bool, pid int) string {
		w, err := Start(Config{Master: m.Addr(), Dir: t.TempDir(), FakePID: pid, ServeTasks: serve})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		return w.Addr()
	}
	serving, plain = start(true, 9301), start(false, 9302)
	for deadline := time.Now().Add(5 * time.Second); m.LiveWorkers() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
	}
	return sys, f, m, serving, plain
}

// shardCaller calls a worker's ShardService through a fresh Peers.
func shardCaller(t *testing.T) func(addr, method string, args, reply mapreduce.WireMessage) error {
	peers := mapreduce.NewPeers()
	t.Cleanup(peers.Close)
	return func(addr, method string, args, reply mapreduce.WireMessage) error {
		return peers.Call(context.Background(), addr, mapreduce.ShardService+"."+method, args, reply)
	}
}

// TestExecMatchesPartitionStep: a serve-capable worker's ExecRange and
// ExecKNN replies are exactly the query plan's per-partition step run on
// the master over the same split — the worker adds transport and a pin
// tier, never a different answer. The range reply is additionally checked
// against first principles: its keys are the partition's points inside
// the query in canonical order, and its Frag is encoding/json's rendering
// of those points, comma-joined. A call it cannot serve (no split
// descriptor, or a worker started without ServeTasks) is an error, never
// an empty reply the gather would mistake for "no matches".
func TestExecMatchesPartitionStep(t *testing.T) {
	sys, f, m, server, plain := startExecWorkers(t)
	call := shardCaller(t)

	splits := f.Splits()
	m.EnsureServeReplicas(splits)
	epoch := sys.FS().FileEpoch("pts")
	query, q, k := geom.NewRect(200, 200, 700, 650), geom.Pt(480, 510), 7
	matched := 0
	for _, sp := range splits {
		part, err := ops.PinSplit(sp)
		if err != nil {
			t.Fatal(err)
		}
		meta := m.ServeMeta(sp)

		var rr mapreduce.ExecRangeReply
		if err := call(server, "ExecRange", &mapreduce.ExecRangeArgs{File: "pts", Epoch: epoch, Meta: meta, Query: query, Keys: true}, &rr); err != nil {
			t.Fatalf("%s ExecRange: %v", sp.Partition, err)
		}
		want, err := ops.PartitionRangePoints(part, query)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rr.Counts, want.Counts) || !slices.Equal(rr.Keys, want.Keys) || !bytes.Equal(rr.Frag, want.Frag) {
			t.Errorf("%s ExecRange: %d keys, %d bytes counted %v, want %d, %d counted %v",
				sp.Partition, len(rr.Keys), len(rr.Frag), rr.Counts, len(want.Keys), len(want.Frag), want.Counts)
		}
		var keys []float64
		var objs []string
		for _, p := range part.Pts { // canonically sorted by PinSplit
			if query.ContainsPoint(p) {
				obj, err := json.Marshal(struct {
					X float64 `json:"x"`
					Y float64 `json:"y"`
				}{p.X, p.Y})
				if err != nil {
					t.Fatal(err)
				}
				keys, objs = append(keys, p.X, p.Y), append(objs, string(obj))
			}
		}
		matched += len(objs)
		if !slices.Equal(rr.Keys, keys) || string(rr.Frag) != strings.Join(objs, ",") {
			t.Errorf("%s ExecRange: stream is not the partition's matches in canonical order:\n keys %v\n want %v\n frag %.200q", sp.Partition, rr.Keys, keys, rr.Frag)
		}

		var kr mapreduce.ExecKNNReply
		if err := call(server, "ExecKNN", &mapreduce.ExecKNNArgs{File: "pts", Epoch: epoch, Meta: meta, Q: q, K: k}, &kr); err != nil {
			t.Fatalf("%s ExecKNN: %v", sp.Partition, err)
		}
		kwant := ops.PartitionKNNCandidates(part, q, k)
		if !reflect.DeepEqual(kr.Cands, kwant) || !slices.Equal(kr.Counts, []int64{int64(len(part.Pts)), int64(len(kwant))}) {
			t.Errorf("%s ExecKNN: %v counted %v, want %v of %d points", sp.Partition, kr.Cands, kr.Counts, kwant, len(part.Pts))
		}
	}

	if matched == 0 {
		t.Fatal("the range query matched nothing: the stream checks were vacuous")
	}

	meta := m.ServeMeta(splits[0])
	for name, call := range map[string]func() error{
		"nil Meta range": func() error {
			return call(server, "ExecRange", &mapreduce.ExecRangeArgs{File: "pts", Epoch: epoch, Query: query}, &mapreduce.ExecRangeReply{})
		},
		"nil Meta knn": func() error {
			return call(server, "ExecKNN", &mapreduce.ExecKNNArgs{File: "pts", Epoch: epoch, Q: q, K: k}, &mapreduce.ExecKNNReply{})
		},
		"non-serve worker range": func() error {
			return call(plain, "ExecRange", &mapreduce.ExecRangeArgs{File: "pts", Epoch: epoch, Meta: meta, Query: query}, &mapreduce.ExecRangeReply{})
		},
		"non-serve worker knn": func() error {
			return call(plain, "ExecKNN", &mapreduce.ExecKNNArgs{File: "pts", Epoch: epoch, Meta: meta, Q: q, K: k}, &mapreduce.ExecKNNReply{})
		},
	} {
		if err := call(); err == nil {
			t.Errorf("%s: got a reply, want an error", name)
		}
	}
}

// TestExecBatchedMatchesMerge: one exec call naming several partitions
// answers what the same partitions pinned on the master give — a range
// call their matches in canonical order as encoding/json renders them
// (with keys only when asked, and the same bytes either way), a kNN call
// each partition's candidates concatenated in call order — with two counts
// per named partition. A call naming a hole fails like one without a Meta.
func TestExecBatchedMatchesMerge(t *testing.T) {
	sys, f, m, server, _ := startExecWorkers(t)
	call := shardCaller(t)
	splits := f.Splits()
	m.EnsureServeReplicas(splits)
	epoch := sys.FS().FileEpoch("pts")
	query, q, k := geom.NewRect(150, 150, 800, 700), geom.Pt(480, 510), 9
	for _, named := range [][]*mapreduce.Split{splits[:1], splits[:3], splits} {
		var metas []*mapreduce.WireSplitMeta
		var matched []geom.Point
		var counts []int64
		var cands []ops.KNNCandidate
		var kcounts []int64
		for _, sp := range named {
			part, err := ops.PinSplit(sp)
			if err != nil {
				t.Fatal(err)
			}
			metas = append(metas, m.ServeMeta(sp))
			ids := part.Tree.Search(query, nil)
			for _, id := range ids {
				matched = append(matched, part.Pts[id])
			}
			counts = append(counts, int64(len(part.Pts)), int64(len(ids)))
			pc := ops.PartitionKNNCandidates(part, q, k)
			cands = append(cands, pc...)
			kcounts = append(kcounts, int64(len(part.Pts)), int64(len(pc)))
		}
		slices.SortFunc(matched, geom.Point.Compare)
		var wantKeys []float64
		objs := make([]string, len(matched))
		for i, p := range matched {
			obj, err := json.Marshal(struct {
				X float64 `json:"x"`
				Y float64 `json:"y"`
			}{p.X, p.Y})
			if err != nil {
				t.Fatal(err)
			}
			wantKeys, objs[i] = append(wantKeys, p.X, p.Y), string(obj)
		}
		wantFrag := []byte(strings.Join(objs, ","))
		if len(wantFrag) == 0 {
			t.Fatalf("%d partitions: the query matched nothing, the check is vacuous", len(named))
		}
		for _, keys := range []bool{false, true} {
			var rr mapreduce.ExecRangeReply
			args := mapreduce.ExecRangeArgs{File: "pts", Epoch: epoch, Meta: metas[0], More: metas[1:], Query: query, Keys: keys}
			if err := call(server, "ExecRange", &args, &rr); err != nil {
				t.Fatalf("%d partitions: ExecRange: %v", len(named), err)
			}
			want := wantKeys
			if !keys {
				want = nil
			}
			if !bytes.Equal(rr.Frag, wantFrag) || !slices.Equal(rr.Keys, want) || !slices.Equal(rr.Counts, counts) {
				t.Errorf("%d partitions, keys %v: %d keys, %d bytes counted %v; want %d, %d counted %v",
					len(named), keys, len(rr.Keys), len(rr.Frag), rr.Counts, len(want), len(wantFrag), counts)
			}
		}
		var kr mapreduce.ExecKNNReply
		if err := call(server, "ExecKNN", &mapreduce.ExecKNNArgs{File: "pts", Epoch: epoch, Meta: metas[0], More: metas[1:], Q: q, K: k}, &kr); err != nil {
			t.Fatalf("%d partitions: ExecKNN: %v", len(named), err)
		}
		if !reflect.DeepEqual(kr.Cands, cands) || !slices.Equal(kr.Counts, kcounts) {
			t.Errorf("%d partitions: ExecKNN counted %v, want %v", len(named), kr.Counts, kcounts)
		}
	}
	hole := &mapreduce.ExecRangeArgs{File: "pts", Epoch: epoch, Meta: m.ServeMeta(splits[0]), More: []*mapreduce.WireSplitMeta{nil}, Query: query}
	if err := call(server, "ExecRange", hole, &mapreduce.ExecRangeReply{}); err == nil {
		t.Error("a call naming an absent partition got a reply")
	}
}

// TestExecStopsWithItsCaller: an exec call whose caller is gone pins no
// partition; the same call from a live caller pins every one it names.
func TestExecStopsWithItsCaller(t *testing.T) {
	sys, f, m, _, _ := startExecWorkers(t)
	w, err := Start(Config{Master: m.Addr(), Dir: t.TempDir(), FakePID: 9303, ServeTasks: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	splits := f.Splits()
	m.EnsureServeReplicas(splits)
	metas := make([]*mapreduce.WireSplitMeta, len(splits))
	for i, sp := range splits {
		metas[i] = m.ServeMeta(sp)
	}
	args := mapreduce.ExecRangeArgs{File: "pts", Epoch: sys.FS().FileEpoch("pts"), Meta: metas[0], More: metas[1:], Query: geom.NewRect(0, 0, 1000, 1000)}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.ExecRange(gone, &args, new(mapreduce.ExecRangeReply)); !errors.Is(err, context.Canceled) {
		t.Fatalf("exec for a caller that is gone = %v, want context.Canceled", err)
	}
	if n, _ := w.ServeTierStats(); n != 0 {
		t.Fatalf("the abandoned call pinned %d partitions", n)
	}
	if err := w.ExecRange(context.Background(), &args, new(mapreduce.ExecRangeReply)); err != nil {
		t.Fatal(err)
	}
	if n, _ := w.ServeTierStats(); n != len(metas) {
		t.Fatalf("the live call pinned %d of %d partitions", n, len(metas))
	}
}

// TestGobClientMatchesPeers pins the one connection a worker still serves
// with net/rpc's default gob codec: a client that dials with rpc.Dial, as
// the benchmark harness's worker micro-levels do, gets from each of the
// four methods that harness calls — DropJob, ReadBlock, ExecRange and
// ExecKNN — exactly the replies Peers gets over the wire codec.
func TestGobClientMatchesPeers(t *testing.T) {
	sys, f, m, server, _ := startExecWorkers(t)
	call := shardCaller(t)
	gobClient, err := rpc.Dial("tcp", server)
	if err != nil {
		t.Fatal(err)
	}
	defer gobClient.Close()

	// DropJob of a job that never existed: the harness's round-trip floor.
	if err := call(server, "DropJob", &mapreduce.DropJobArgs{JobID: -1}, &mapreduce.DropJobReply{}); err != nil {
		t.Fatalf("DropJob over Peers: %v", err)
	}
	if err := gobClient.Call(mapreduce.ShardService+".DropJob", mapreduce.DropJobArgs{JobID: -1}, &mapreduce.DropJobReply{}); err != nil {
		t.Fatalf("DropJob over rpc.Dial: %v", err)
	}

	splits := f.Splits()
	m.EnsureServeReplicas(splits)
	epoch := sys.FS().FileEpoch("pts")
	query, q, k := geom.NewRect(200, 200, 700, 650), geom.Pt(480, 510), 7
	matched, cands := 0, 0
	for _, sp := range splits {
		meta := m.ServeMeta(sp)
		args := mapreduce.ExecRangeArgs{File: "pts", Epoch: epoch, Meta: meta, Query: query}
		var viaPeers, viaGob mapreduce.ExecRangeReply
		if err := call(server, "ExecRange", &args, &viaPeers); err != nil {
			t.Fatalf("%s ExecRange over Peers: %v", sp.Partition, err)
		}
		if err := gobClient.Call(mapreduce.ShardService+".ExecRange", args, &viaGob); err != nil {
			t.Fatalf("%s ExecRange over rpc.Dial: %v", sp.Partition, err)
		}
		if !slices.Equal(viaPeers.Counts, viaGob.Counts) || !slices.Equal(viaPeers.Keys, viaGob.Keys) || !bytes.Equal(viaPeers.Frag, viaGob.Frag) {
			t.Errorf("%s ExecRange: rpc.Dial got %d keys, %d bytes counted %v; Peers %d, %d counted %v", sp.Partition,
				len(viaGob.Keys), len(viaGob.Frag), viaGob.Counts, len(viaPeers.Keys), len(viaPeers.Frag), viaPeers.Counts)
		}
		matched += len(viaPeers.Frag)

		kargs := mapreduce.ExecKNNArgs{File: "pts", Epoch: epoch, Meta: meta, Q: q, K: k}
		var knnPeers, knnGob mapreduce.ExecKNNReply
		if err := call(server, "ExecKNN", &kargs, &knnPeers); err != nil {
			t.Fatalf("%s ExecKNN over Peers: %v", sp.Partition, err)
		}
		if err := gobClient.Call(mapreduce.ShardService+".ExecKNN", kargs, &knnGob); err != nil {
			t.Fatalf("%s ExecKNN over rpc.Dial: %v", sp.Partition, err)
		}
		if !reflect.DeepEqual(knnPeers.Cands, knnGob.Cands) || !slices.Equal(knnPeers.Counts, knnGob.Counts) {
			t.Errorf("%s ExecKNN: rpc.Dial got %d candidates counted %v; Peers %d counted %v", sp.Partition,
				len(knnGob.Cands), knnGob.Counts, len(knnPeers.Cands), knnPeers.Counts)
		}
		cands += len(knnPeers.Cands)

		for _, ref := range meta.Blocks {
			var blockPeers, blockGob mapreduce.ReadBlockReply
			if err := call(server, "ReadBlock", &mapreduce.ReadBlockArgs{ID: ref.ID}, &blockPeers); err != nil {
				t.Fatalf("block %d ReadBlock over Peers: %v", ref.ID, err)
			}
			if err := gobClient.Call(mapreduce.ShardService+".ReadBlock", mapreduce.ReadBlockArgs{ID: ref.ID}, &blockGob); err != nil {
				t.Fatalf("block %d ReadBlock over rpc.Dial: %v", ref.ID, err)
			}
			if len(blockPeers.Frame) == 0 || !bytes.Equal(blockPeers.Frame, blockGob.Frame) {
				t.Errorf("block %d: rpc.Dial got a %d-byte frame, Peers %d bytes", ref.ID, len(blockGob.Frame), len(blockPeers.Frame))
			}
		}
	}
	if matched == 0 || cands == 0 {
		t.Fatalf("the queries matched %d bytes and %d candidates: the comparison was vacuous", matched, cands)
	}
}
