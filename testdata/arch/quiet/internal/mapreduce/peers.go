package mapreduce

import "net/rpc"

// In the one file that plugs net/rpc in, a client and a served connection
// trip nothing.
func dial(srv *rpc.Server) (*rpc.Client, error) {
	go srv.ServeConn(nil)
	return rpc.Dial("tcp", "localhost:1")
}
