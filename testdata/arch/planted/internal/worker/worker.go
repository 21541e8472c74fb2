package worker

import "net/rpc"

// dial reaches a peer on its own instead of through Peers.Call.
func dial() (*rpc.Client, error) {
	return rpc.Dial("tcp", "localhost:1")
}
