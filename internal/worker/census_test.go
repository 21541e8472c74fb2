package worker

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/mapreduce"
)

func init() {
	// The census job: map emits every record under one key, reduce writes
	// the values back out.
	mapreduce.RegisterKind("test-census", func(map[string]string) (mapreduce.KindFuncs, error) {
		return mapreduce.KindFuncs{
			Map: func(ctx *mapreduce.TaskContext, split *mapreduce.Split) error {
				for _, rec := range split.Records() {
					ctx.Emit("k", rec)
				}
				return nil
			},
			Reduce: func(ctx *mapreduce.TaskContext, key string, values []string) error {
				for _, v := range values {
					ctx.Write(v)
				}
				return nil
			},
		}, nil
	})
}

// countedListener counts the connections it accepts.
type countedListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// serveCounted serves handlers on a fresh counted listener.
func serveCounted(t *testing.T, handlers map[string]mapreduce.Handler) *countedListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	l := &countedListener{Listener: ln}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go mapreduce.ServeRPC(ctx, l, handlers, nil)
	return l
}

// censusMaster is a scripted master: it registers anyone, hands out a
// fixed queue of assignments one poll at a time, and collects the reports.
type censusMaster struct {
	mu    sync.Mutex
	queue []mapreduce.TaskAssignment
	done  chan mapreduce.TaskDoneArgs
}

func (m *censusMaster) Register(_ context.Context, args *mapreduce.RegisterArgs, reply *mapreduce.RegisterReply) error {
	reply.WorkerID, reply.HeartbeatEvery = 1, 2*time.Millisecond
	return nil
}

func (m *censusMaster) Heartbeat(_ context.Context, args *mapreduce.HeartbeatArgs, reply *mapreduce.HeartbeatReply) error {
	reply.OK = true
	return nil
}

func (m *censusMaster) GetTask(_ context.Context, args *mapreduce.GetTaskArgs, reply *mapreduce.TaskAssignment) error {
	m.mu.Lock()
	if len(m.queue) > 0 {
		*reply, m.queue = m.queue[0], m.queue[1:]
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()
	time.Sleep(time.Millisecond) // an empty long-poll, shortened
	reply.Phase = mapreduce.TaskNone
	return nil
}

func (m *censusMaster) TaskDone(_ context.Context, args *mapreduce.TaskDoneArgs, reply *mapreduce.TaskDoneReply) error {
	m.done <- *args
	return nil
}

// censusShards is a scripted shard server holding one block replica and
// one spilled shard stream, served to whoever asks.
type censusShards struct {
	block, shard []byte
}

func (s *censusShards) ReadBlock(_ context.Context, args *mapreduce.ReadBlockArgs, reply *mapreduce.ReadBlockReply) error {
	reply.Frame = s.block
	return nil
}

func (s *censusShards) FetchChunk(_ context.Context, args *mapreduce.FetchChunkArgs, reply *mapreduce.FetchChunkReply) error {
	n, eof, err := mapreduce.ChunkWindow(int64(len(s.shard)), args.Offset, args.MaxBytes)
	if err != nil {
		return err
	}
	reply.Data, reply.EOF = s.shard[args.Offset:args.Offset+n], eof
	return nil
}

func (s *censusShards) handlers() map[string]mapreduce.Handler {
	return map[string]mapreduce.Handler{
		mapreduce.ShardService + ".ReadBlock":  mapreduce.Handle(s.ReadBlock),
		mapreduce.ShardService + ".FetchChunk": mapreduce.Handle(s.FetchChunk),
	}
}

// TestWorkerConnectionCensus: a worker's connections are bounded by its
// peers, not by its work. Across 20 attempts — 10 maps reading their block
// from a peer holder and one more block from the master, 10 reduces
// streaming a shard from the same peer — plus the polls, heartbeats and
// reports around them, the master sees one connection from the worker and
// the peer sees one.
func TestWorkerConnectionCensus(t *testing.T) {
	records := []string{"a", "b", "c"}
	block := dfs.EncodeBlockFrame(dfs.NewBlockFromRecords("", records))
	var pairs []mapreduce.Pair
	for _, r := range records {
		pairs = append(pairs, mapreduce.Pair{Key: "k", Value: r})
	}
	shards := &censusShards{block: block, shard: mapreduce.EncodeShard(pairs)}
	peer := serveCounted(t, shards.handlers())
	peerAddr := peer.Addr().String()

	master := &censusMaster{done: make(chan mapreduce.TaskDoneArgs, 20)}
	for i := 0; i < 10; i++ {
		master.queue = append(master.queue,
			mapreduce.TaskAssignment{
				DispatchID: int64(2*i + 1), Phase: mapreduce.TaskMap, JobID: int64(i + 1), JobKind: "test-census", NumShards: 1,
				Meta: &mapreduce.WireSplitMeta{Partition: "p", Blocks: []mapreduce.WireBlockRef{
					{ID: int64(100 + i), Holders: []string{peerAddr}},
					{ID: int64(200 + i)}, // no holder: the master serves it
				}},
			},
			mapreduce.TaskAssignment{
				DispatchID: int64(2*i + 2), Phase: mapreduce.TaskReduce, JobID: int64(i + 1), JobKind: "test-census",
				Sources: []mapreduce.ShardSource{{Task: 0, Addr: peerAddr}},
			})
	}
	masterLn := serveCounted(t, map[string]mapreduce.Handler{
		mapreduce.MasterService + ".Register":  mapreduce.Handle(master.Register),
		mapreduce.MasterService + ".Heartbeat": mapreduce.Handle(master.Heartbeat),
		mapreduce.MasterService + ".GetTask":   mapreduce.Handle(master.GetTask),
		mapreduce.MasterService + ".TaskDone":  mapreduce.Handle(master.TaskDone),
		mapreduce.ShardService + ".ReadBlock":  mapreduce.Handle(shards.ReadBlock),
	})

	w, err := Start(Config{Master: masterLn.Addr().String(), Dir: t.TempDir(), Tasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	for i := 0; i < 20; i++ {
		select {
		case res := <-master.done:
			if res.Err != "" {
				t.Fatalf("attempt %d failed: %s", res.DispatchID, res.Err)
			}
			valuesIn := res.Metrics.Observations[mapreduce.HistReducePartRecords]
			if res.DispatchID%2 == 0 && (fmt.Sprint(valuesIn) != fmt.Sprint([]float64{float64(len(records))}) || fmt.Sprint(res.Out) != fmt.Sprint(records)) {
				t.Fatalf("reduce %d: %v values in, out %v; want [%d], %v", res.DispatchID, valuesIn, res.Out, len(records), records)
			}
			pairs := res.Metrics.Counters[mapreduce.CounterShufflePairs]
			if res.DispatchID%2 == 1 && (res.RemoteReads != 2 || pairs != 2*int64(len(records))) {
				t.Fatalf("map %d: %d remote reads, %d pairs; want 2 reads, %d pairs", res.DispatchID, res.RemoteReads, pairs, 2*len(records))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 20 attempts reported", i)
		}
	}
	if n := masterLn.accepted.Load(); n != 1 {
		t.Errorf("the worker opened %d connections to the master over 20 attempts, want 1", n)
	}
	if n := peer.accepted.Load(); n != 1 {
		t.Errorf("the worker opened %d connections to its peer over 20 attempts, want 1", n)
	}
}
