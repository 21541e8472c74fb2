package serve

import (
	"context"
	"sync"
)

// flightGroup coalesces concurrent builds of the same response key: the
// first caller (the leader) runs the build, every later caller with the
// same key waits for the leader's result instead of running a duplicate
// job. A thundering herd on one cold key therefore costs one execution.
// Hand-rolled rather than x/sync/singleflight to keep the tree
// dependency-free; semantics differ deliberately in that followers honor
// their own context cancellation, and that a build which failed because
// its leader's request ended is no answer for the followers: the first of
// them whose request is live leads a fresh build.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done      chan struct{}
	body      []byte
	meta      *execMeta
	err       error
	abandoned bool // the leader's request ended before its build did
}

// do returns the build's result, running it only in the leader.
// coalesced is true for followers that waited on another request's build.
func (g *flightGroup) do(ctx context.Context, key string, build func() ([]byte, *execMeta, error)) (body []byte, meta *execMeta, coalesced bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	for {
		c, ok := g.m[key]
		if !ok {
			break
		}
		g.mu.Unlock()
		select {
		case <-c.done:
			if !c.abandoned || ctx.Err() != nil {
				return c.body, c.meta, true, c.err
			}
		case <-ctx.Done():
			return nil, nil, true, ctx.Err()
		}
		g.mu.Lock()
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.body, c.meta, c.err = build()
	c.abandoned = c.err != nil && ctx.Err() != nil
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.body, c.meta, false, c.err
}
