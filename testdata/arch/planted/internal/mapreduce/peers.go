package mapreduce

import "net/rpc"

// net/rpc back in the call layer: a client, a served connection and a
// reflective registration, each outside the worker's gob arm.
func dial(srv *rpc.Server) (*rpc.Client, error) {
	srv.RegisterName("Shards", nil)
	go srv.ServeConn(nil)
	return rpc.Dial("tcp", "localhost:1")
}

// masterService is a retired wrapper type.
type masterService struct{}
