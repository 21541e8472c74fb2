package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/rpc"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/sindex"
)

// hungHolder is a scripted serve-capable worker: it accepts every replica
// push, parks its ExecRange calls while hang is set, and refuses them
// otherwise — so once released it is a live holder the ladder steps past.
type hungHolder struct {
	hang    atomic.Bool
	held    chan struct{} // one token per parked call
	release chan struct{}
}

func (h *hungHolder) PushBlock(args mapreduce.PushBlockArgs, reply *mapreduce.PushBlockReply) error {
	return nil
}

func (h *hungHolder) ExecRange(args mapreduce.ExecRangeArgs, reply *mapreduce.ExecRangeReply) error {
	if h.hang.Load() {
		h.held <- struct{}{}
		<-h.release
	}
	return errors.New("scripted: this holder serves nothing")
}

// TestCancelledScatterStops: a request cancelled mid-scatter returns at
// once with its context's error. Its calls failed because the request
// ended, not because a holder died: the ladder must not walk on — no RPC
// error is counted and nothing is pinned on the master for a response
// nobody will read. The connection the abandoned calls hang on stays good:
// the next request rides it, steps past the holder and answers
// byte-identically to the MapReduce engine.
func TestCancelledScatterStops(t *testing.T) {
	sys := core.New(core.Config{BlockSize: 2048, Workers: 4, Seed: 7})
	pts := datagen.Points(datagen.Clustered, 800, geom.NewRect(0, 0, 1000, 1000), 5)
	if _, err := sys.LoadPoints("pts", pts, sindex.STR); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, Config{CacheSize: -1, Planner: PlannerSharded})
	const query = "/rangequery?file=pts&rect=100,100,900,900"
	serve := func(ctx context.Context, url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx))
		return rec
	}
	want := serve(context.Background(), query+"&engine="+PlannerMapReduce) // in process: no pool yet
	if want.Code != http.StatusOK || want.Header().Get("X-Engine") != PlannerMapReduce {
		t.Fatalf("oracle: status %d by %q", want.Code, want.Header().Get("X-Engine"))
	}

	m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{Replication: 2, Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	holder := &hungHolder{held: make(chan struct{}, 64), release: make(chan struct{})}
	holder.hang.Store(true)
	rs := rpc.NewServer()
	if err := rs.RegisterName(mapreduce.ShardService, holder); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go rs.ServeConn(conn)
		}
	}()
	reg := mapreduce.RegisterArgs{Addr: ln.Addr().String(), CanServe: true}
	if err := m.Peers().Call(context.Background(), m.Addr(), mapreduce.MasterService+".Register", reg, &mapreduce.RegisterReply{}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- serve(ctx, query) }()
	<-holder.held // a fragment is parked on the holder
	partitions, bytes := srv.mt.Stats()
	cancel()
	cancelled := time.Now()
	select {
	case rec := <-done:
		if waited := time.Since(cancelled); waited > time.Second {
			t.Fatalf("the handler returned %v after the cancel", waited)
		}
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
			t.Fatalf("cancelled request: status %d, body %.120q; want the context's error", rec.Code, rec.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled request is still waiting for its holder")
	}
	if n := srv.reg.Counter("serve.shard.rpc.errors"); n != 0 {
		t.Errorf("the cancel was counted as %d dead-holder RPC errors", n)
	}
	if p, b := srv.mt.Stats(); p != partitions || b != bytes {
		t.Errorf("the cancelled request pinned on the master: tier %d partitions/%d bytes, was %d/%d", p, b, partitions, bytes)
	}

	holder.hang.Store(false)
	close(holder.release)
	got := serve(context.Background(), query)
	if got.Code != http.StatusOK || got.Header().Get("X-Engine") != PlannerSharded {
		t.Fatalf("next request: status %d by %q: %.120q", got.Code, got.Header().Get("X-Engine"), got.Body)
	}
	if got.Body.String() != want.Body.String() {
		t.Error("the request after a cancelled one differs from the MapReduce engine's body")
	}
	if n := srv.reg.Counter("serve.shard.rpc.errors"); n == 0 {
		t.Error("the next request never asked the holder: the ladder was not exercised")
	}
	if n := accepted.Load(); n != 1 {
		t.Errorf("%d connections to the holder, want the one the cancelled calls were abandoned on", n)
	}
}
