package worker

import (
	"io"
	"net/rpc"

	"spatialhadoop/internal/mapreduce"
)

// The gob arm: the one connection a worker serves with net/rpc's default
// gob codec instead of the wire codec. The benchmark harness's worker
// micro-levels dial a worker with rpc.Dial and call these four methods;
// nothing else takes this arm, and it goes once that harness calls through
// Peers. Each call runs under the worker's lifetime, as net/rpc gives a
// handler no context of its own, and an ExecRange reply is never released:
// net/rpc encodes it after the method returns.

// serveGob serves one gob connection until it ends.
func (w *Worker) serveGob(conn io.ReadWriteCloser) {
	srv := rpc.NewServer()
	if err := srv.RegisterName(mapreduce.ShardService, gobShards{w}); err != nil {
		conn.Close()
		return
	}
	srv.ServeConn(conn)
}

// gobShards is the harness's view of the worker's ShardService.
type gobShards struct{ w *Worker }

func (g gobShards) DropJob(args mapreduce.DropJobArgs, reply *mapreduce.DropJobReply) error {
	return g.w.DropJob(g.w.ctx, &args, reply)
}

func (g gobShards) ReadBlock(args mapreduce.ReadBlockArgs, reply *mapreduce.ReadBlockReply) error {
	return g.w.ReadBlock(g.w.ctx, &args, reply)
}

func (g gobShards) ExecRange(args mapreduce.ExecRangeArgs, reply *mapreduce.ExecRangeReply) error {
	return g.w.ExecRange(g.w.ctx, &args, reply)
}

func (g gobShards) ExecKNN(args mapreduce.ExecKNNArgs, reply *mapreduce.ExecKNNReply) error {
	return g.w.ExecKNN(g.w.ctx, &args, reply)
}
