package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/serve"
	"spatialhadoop/internal/sindex"
	"spatialhadoop/internal/worker"
)

// shardExplain is the sharded engine's part of ?explain=1.
type shardExplain struct {
	Scanned       int `json:"partitions_scanned"`
	Fanout        int `json:"shard_fanout"`
	Calls         int `json:"shard_calls"`
	Remote        int `json:"shard_remote"`
	Local         int `json:"shard_local"`
	FallbackPeer  int `json:"shard_fallback_peer"`
	FallbackLocal int `json:"shard_fallback_local"`
}

func explainOf(t *testing.T, url string) shardExplain {
	t.Helper()
	var body struct {
		Explain shardExplain `json:"explain"`
	}
	if err := json.Unmarshal([]byte(getBody(t, url+"&explain=1")), &body); err != nil {
		t.Fatal(err)
	}
	return body.Explain
}

// TestShardCallsPerHolder: the scatter makes one exec call per
// rendezvous-first holder of the kept partitions, so on two workers
// shard_calls is the number of distinct first holders — below shard_fanout
// as soon as one worker leads two kept partitions — and the
// serve.shard.calls histogram observes it per query.
func TestShardCallsPerHolder(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 7})
	area := geom.NewRect(0, 0, 1000, 1000)
	if _, err := sys.LoadPoints("pts", datagen.Points(datagen.Uniform, 2000, area, 9), sindex.STR); err != nil {
		t.Fatal(err)
	}
	_, stop := startServeWorkers(t, sys, 2)
	defer stop()
	srv := serve.New(sys, serve.Config{CacheSize: -1, Planner: serve.PlannerSharded})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	f, err := sys.Open("pts")
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Cluster().Master()

	fewer := false
	for _, q := range []geom.Rect{
		geom.NewRect(0, 0, 1000, 1000),
		geom.NewRect(100, 100, 600, 450),
		geom.NewRect(700, 20, 990, 300),
		geom.NewRect(480, 480, 520, 520),
	} {
		got := explainOf(t, ts.URL+"/rangequery?file=pts&rect="+rectParam(q))
		// The kept partitions are the ones whose cover meets the query.
		first := map[string]bool{}
		kept := 0
		for _, sp := range f.Splits() {
			if sp.Cover().Intersects(q) {
				kept++
				first[m.ServeHolders(sp)[0]] = true
			}
		}
		if kept != got.Scanned {
			t.Errorf("rect %v: %d partitions scanned, %d covers meet it", q, got.Scanned, kept)
		}
		if got.Fanout != kept || got.Calls != len(first) || got.Remote != kept {
			t.Errorf("rect %v: explain %+v; want fanout %d, %d calls (one per first holder), all remote", q, got, kept, len(first))
		}
		fewer = fewer || got.Calls < got.Fanout
	}
	if !fewer {
		t.Fatal("no query made fewer calls than partitions")
	}
	if h := srv.Metrics().Snapshot().Histograms["serve.shard.calls"]; h.Count == 0 {
		t.Error("serve.shard.calls observed nothing")
	}
}

// rectParam renders q as the rect query parameter.
func rectParam(q geom.Rect) string {
	b, _ := json.Marshal([]float64{q.MinX, q.MinY, q.MaxX, q.MaxY})
	return string(b[1 : len(b)-1])
}

// badHolder is a scripted serve-capable worker that takes every replica
// push and answers every ExecRange call badly: with an error, or with
// counts for one partition however many the call names. It reports the
// number of partitions each call named.
type badHolder struct {
	miscount bool
	named    chan int
}

func (h *badHolder) PushBlock(_ context.Context, args *mapreduce.PushBlockArgs, reply *mapreduce.PushBlockReply) error {
	return nil
}

func (h *badHolder) ExecRange(_ context.Context, args *mapreduce.ExecRangeArgs, reply *mapreduce.ExecRangeReply) error {
	h.named <- 1 + len(args.More)
	if h.miscount {
		reply.Counts = []int64{1, 0}
		return nil
	}
	return errors.New("scripted: this holder fails its calls")
}

// TestBatchedCallLadder: a holder whose call naming several partitions
// fails — or answers with counts that are not two per named partition,
// which is the same thing — sends each of those partitions down its own
// ladder from the next holder. Every one is answered by the live worker
// (fallback to a peer, never to the master), the failed call counts one RPC
// error, and the body is byte-identical to the local engine's.
func TestBatchedCallLadder(t *testing.T) {
	for _, miscount := range []bool{false, true} {
		name := map[bool]string{false: "error", true: "miscounted"}[miscount]
		t.Run(name, func(t *testing.T) {
			sys := core.New(core.Config{BlockSize: 1024, Workers: 4, Seed: 7})
			area := geom.NewRect(0, 0, 1000, 1000)
			if _, err := sys.LoadPoints("pts", datagen.Points(datagen.Uniform, 2000, area, 5), sindex.STR); err != nil {
				t.Fatal(err)
			}
			m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{HeartbeatEvery: 5 * time.Millisecond, Lease: time.Minute, Replication: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Stop()
			// The scripted holder registers first, the live worker second.
			holder := &badHolder{miscount: miscount, named: make(chan int, 64)}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go mapreduce.ServeRPC(ctx, ln, map[string]mapreduce.Handler{
				mapreduce.ShardService + ".PushBlock": mapreduce.Handle(holder.PushBlock),
				mapreduce.ShardService + ".ExecRange": mapreduce.Handle(holder.ExecRange),
			}, nil)
			reg := mapreduce.RegisterArgs{Addr: ln.Addr().String(), CanServe: true}
			if err := m.Peers().Call(ctx, m.Addr(), mapreduce.MasterService+".Register", &reg, &mapreduce.RegisterReply{}); err != nil {
				t.Fatal(err)
			}
			w, err := worker.Start(worker.Config{Master: m.Addr(), Dir: t.TempDir(), Tasks: 1, FakePID: 9400, ServeTasks: true})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Stop()
			for deadline := time.Now().Add(5 * time.Second); m.LiveWorkers() < 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the live worker never registered")
				}
			}
			srv := serve.New(sys, serve.Config{CacheSize: -1})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			const query = "/rangequery?file=pts&rect=0,0,1000,1000"
			want := getBody(t, ts.URL+query+"&engine=local")
			errors0 := srv.Metrics().Counter("serve.shard.rpc.errors")
			if got := getBody(t, ts.URL+query+"&engine=sharded"); got != want {
				t.Fatalf("the body after a failed batched call differs from the local engine's:\n got %.200q\nwant %.200q", got, want)
			}
			named := <-holder.named
			if named < 2 {
				t.Fatalf("the scripted holder's call named %d partitions, want a batched call", named)
			}
			if n := srv.Metrics().Counter("serve.shard.rpc.errors") - errors0; n != 1 {
				t.Errorf("serve.shard.rpc.errors rose by %d, want 1 for the one failed call", n)
			}
			got := explainOf(t, ts.URL+query+"&engine=sharded")
			if again := <-holder.named; again != named {
				t.Fatalf("the explained request's call named %d partitions, the first %d", again, named)
			}
			if got.FallbackPeer != named || got.FallbackLocal != 0 || got.Local != 0 || got.Remote != got.Fanout || got.Calls != 2 {
				t.Errorf("explain %+v: want %d peer fallbacks, every partition remote, 2 calls", got, named)
			}
			select {
			case n := <-holder.named:
				t.Errorf("the ladder asked the failed holder again (%d partitions)", n)
			default:
			}
		})
	}
}
