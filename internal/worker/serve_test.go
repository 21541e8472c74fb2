package worker

import (
	"bytes"
	"encoding/json"
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
	sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 7})
	area := geom.NewRect(0, 0, 1000, 1000)
	f, err := sys.LoadPoints("pts", datagen.Points(datagen.Clustered, 2000, area, 3), sindex.STRPlus)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{
		HeartbeatEvery: 5 * time.Millisecond,
		Lease:          time.Second,
		Replication:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	dial := func(serve bool, pid int) *rpc.Client {
		w, err := Start(Config{Master: m.Addr(), Dir: t.TempDir(), FakePID: pid, ServeTasks: serve})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		c, err := rpc.Dial("tcp", w.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	server, plain := dial(true, 9301), dial(false, 9302)
	for deadline := time.Now().Add(5 * time.Second); m.LiveWorkers() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
	}

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
		if err := server.Call(mapreduce.ShardService+".ExecRange", mapreduce.ExecRangeArgs{File: "pts", Epoch: epoch, Meta: meta, Query: query}, &rr); err != nil {
			t.Fatalf("%s ExecRange: %v", sp.Partition, err)
		}
		want, err := ops.PartitionRangePoints(part, query)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Records != int64(len(part.Recs)) || !slices.Equal(rr.Keys, want.Keys) || !bytes.Equal(rr.Frag, want.Frag) {
			t.Errorf("%s ExecRange: %d keys, %d bytes of %d records, want %d, %d of %d",
				sp.Partition, len(rr.Keys), len(rr.Frag), rr.Records, len(want.Keys), len(want.Frag), len(part.Recs))
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
		if err := server.Call(mapreduce.ShardService+".ExecKNN", mapreduce.ExecKNNArgs{File: "pts", Epoch: epoch, Meta: meta, Q: q, K: k}, &kr); err != nil {
			t.Fatalf("%s ExecKNN: %v", sp.Partition, err)
		}
		if want := ops.PartitionKNNCandidates(part, q, k); kr.Records != int64(len(part.Recs)) || !reflect.DeepEqual(kr.Cands, want) {
			t.Errorf("%s ExecKNN: %v, want %v", sp.Partition, kr.Cands, want)
		}
	}

	if matched == 0 {
		t.Fatal("the range query matched nothing: the stream checks were vacuous")
	}

	meta := m.ServeMeta(splits[0])
	for name, call := range map[string]func() error{
		"nil Meta range": func() error {
			return server.Call(mapreduce.ShardService+".ExecRange", mapreduce.ExecRangeArgs{File: "pts", Epoch: epoch, Query: query}, &mapreduce.ExecRangeReply{})
		},
		"nil Meta knn": func() error {
			return server.Call(mapreduce.ShardService+".ExecKNN", mapreduce.ExecKNNArgs{File: "pts", Epoch: epoch, Q: q, K: k}, &mapreduce.ExecKNNReply{})
		},
		"non-serve worker range": func() error {
			return plain.Call(mapreduce.ShardService+".ExecRange", mapreduce.ExecRangeArgs{File: "pts", Epoch: epoch, Meta: meta, Query: query}, &mapreduce.ExecRangeReply{})
		},
		"non-serve worker knn": func() error {
			return plain.Call(mapreduce.ShardService+".ExecKNN", mapreduce.ExecKNNArgs{File: "pts", Epoch: epoch, Meta: meta, Q: q, K: k}, &mapreduce.ExecKNNReply{})
		},
	} {
		if err := call(); err == nil {
			t.Errorf("%s: got a reply, want an error", name)
		}
	}
}
