package serve

import "net/rpc"

// A test counts: it serves a connection by hand instead of with ServeRPC.
func serveOne(srv *rpc.Server) { srv.ServeConn(nil) }
