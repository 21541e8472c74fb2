package serve

import "net/rpc"

var server *rpc.Server
