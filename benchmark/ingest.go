package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/serve"
	"spatialhadoop/internal/sindex"
)

// ingest-query writes beside reading: every cycle replaces the live file
// with another dataset slice under another partitioning technique — an
// epoch bump that empties the decoded-block cache and the memory tier —
// and then sends queriesPerCycle queries, most of which pay decode and pin
// on first touch. One operation is one build or one query.

const (
	ingestSlices = 4
	// queriesPerCycle is below the live file's partition count (14 at full
	// scale), so most queries are some partition's first touch and the
	// median operation is a cold query. At 32 per cycle half the queries
	// found their partitions pinned, the median sat on the knee between the
	// warm mode (0.4 ms) and the cold one (1.4 ms and up), and it swung by
	// 40 % between seeds; at 16 the 95th percentile sat on the knee between
	// queries and builds instead.
	queriesPerCycle = 12
	// Each slice has ingestSubPools disjoint sets of queriesPerCycle
	// queries, taken in turn each time the slice comes round, so a window
	// averages over sixteen draws of the mix and not four.
	ingestSubPools = 4
	liveFile       = "live"
)

var ingestTechniques = [...]sindex.Technique{sindex.STRPlus, sindex.Grid, sindex.QuadTree, sindex.Hilbert}

// ingestData is the seeded input: the slices, each slice's queries and
// the bodies a throwaway STR+ system answers them with. Every technique
// must reproduce those bodies.
type ingestData struct {
	slices [ingestSlices][]geom.Point
	pools  [ingestSlices][]query
	oracle [ingestSlices][][]byte
}

func genIngest(seed int64, sz sizes) (*ingestData, error) {
	d := &ingestData{}
	for s := range d.slices {
		// The previous slice's reference system is garbage by now; collect
		// it here so the harness's own peak does not depend on GC pacing.
		runtime.GC()
		d.slices[s] = genPoints(seed*ingestSlices+int64(s)+1000, sz.slicePoints)
		d.pools[s] = genPool(seed*ingestSlices+int64(s), liveFile, d.slices[s], queriesPerCycle*ingestSubPools)
		ref := newSystem()
		if _, err := ref.LoadPoints(liveFile, d.slices[s], sindex.STRPlus); err != nil {
			return nil, err
		}
		var err error
		h := serve.New(ref, serve.Config{CacheSize: -1}).Handler()
		if d.oracle[s], err = oracleBodies(h, d.pools[s]); err == nil {
			err = checkOracle(d.slices[s], d.pools[s], d.oracle[s])
		}
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// ingestPass drives the build/query cycles.
type ingestPass struct {
	in   *serveInst
	data *ingestData
	tr   *tracer
	// builds and queries split the pass's latencies by operation kind.
	builds, queries []float64
	explain         explainSums
	engines         engineTally
	bytes           int64
}

// cycle runs cycle c: one build, then the dataset slice's queries split
// between the callers.
func (p *ingestPass) cycle(c int, log *opLog) {
	s, t := ingestCycle(c)
	start := time.Now()
	_, err := p.in.sys.LoadPoints(liveFile, p.data.slices[s], ingestTechniques[t])
	d := time.Since(start)
	if err != nil {
		log.fail(fmt.Errorf("build cycle %d: %w", c, err))
		return
	}
	log.ok(d)
	p.builds = append(p.builds, float64(d.Nanoseconds())/1e6)
	p.tr.record(0, 0, p.tr.newOp(), "core.load_points/"+ingestTechniques[t].String(), start, d)

	lo := (c / ingestSlices) % ingestSubPools * queriesPerCycle
	sp := &servePass{in: p.in, pool: p.data.pools[s][lo : lo+queriesPerCycle], oracle: p.data.oracle[s][lo : lo+queriesPerCycle], tr: p.tr}
	states := make([]serveClient, len(p.in.callers))
	var wg sync.WaitGroup
	for ci, caller := range p.in.callers {
		wg.Add(1)
		go func(ci int, caller *httpCaller) {
			defer wg.Done()
			for qi := ci; qi < len(sp.pool); qi += len(p.in.callers) {
				sp.one(caller, qi, &states[ci])
			}
		}(ci, caller)
	}
	wg.Wait()
	st := mergeClients(states)
	p.queries = append(p.queries, st.log.latMS...)
	p.explain.add(st.explain.n, st.explain.sum)
	p.engines.add(st.engines)
	p.bytes += st.log.bytes
	log.merge(&st.log)
}

// cyclesPerSlice cycles make one slice of an ingest window: four
// consecutive cycles build every dataset slice once and use every
// technique once, so all slices do the same work.
const cyclesPerSlice = ingestSlices

// slice runs slice i of the schedule, after the warm-up's cycle.
func (p *ingestPass) slice(i int) *opLog {
	log := &opLog{}
	for c := (i + 1) * cyclesPerSlice; c < (i+2)*cyclesPerSlice; c++ {
		p.cycle(c, log)
	}
	return log
}

func newIngestInst(first []geom.Point) (*serveInst, error) {
	// The memory tier stays at its 64 MiB default: this is the cold case.
	return newServeInst(liveFile, first, serveOptions{planner: serve.PlannerAuto})
}

func runIngest(cfg runConfig) (*result, error) {
	if err := checkClients(); err != nil {
		return nil, err
	}
	sz := sizesFor(cfg.scale)
	data, err := genIngest(cfg.seed, sz)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.workload, Traced: cfg.traced, Env: cfg.env()}
	dg := newDigest()
	for s := range data.oracle {
		for _, b := range data.oracle[s] {
			dg.add(b)
		}
	}
	res.Digest = dg.sum()

	ref := newReference()
	pass := &ingestPass{data: data}
	var setups []float64
	for i := 0; i < cfg.setupReps(); i++ {
		if pass.in != nil {
			if err := pass.in.close(); err != nil {
				return nil, err
			}
		}
		secs, err := ref.timeSetup(func() error {
			in, err := newIngestInst(data.slices[0])
			if err != nil {
				return err
			}
			pass.in = in
			// Warm-up is one whole cycle: connections open, every code path
			// of build and cold query taken once.
			warm := &opLog{}
			pass.cycle(1, warm)
			if warm.firstErr != nil {
				in.close()
				return fmt.Errorf("warm-up: %w", warm.firstErr)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	in := pass.in
	defer in.close()

	*pass = ingestPass{in: in, data: data}
	before := in.srv.Metrics().Snapshot()
	timed := measure(cfg.timedWindow(), ref, pass.slice)
	after := in.srv.Metrics().Snapshot()
	res.endToEndMetrics(&timed, setups)
	hits := counterDelta(before, after, "serve.memtier.hits")
	misses := counterDelta(before, after, "serve.memtier.misses")
	if misses == 0 {
		res.problem("serve.memtier_hit_share is 1: no query paid a cold pin, the builds did not invalidate the tier (hits %v)", hits)
	}
	if len(pass.builds) == 0 {
		res.problem("no build completed in the window")
	}
	if !cfg.traced {
		return res, nil
	}

	t := serveTrace{tr: newTracer(), timed: &timed, httpLatMS: pass.queries}
	*pass = ingestPass{in: in, data: data, tr: t.tr}
	if t.sBefore, t.yBefore, err = in.metricsJSON(); err != nil {
		return nil, err
	}
	traced := measure(cfg.tracedWindow(), ref, pass.slice)
	t.traced = &traced
	if t.sAfter, t.yAfter, err = in.metricsJSON(); err != nil {
		return nil, err
	}
	t.st = &serveClient{explain: pass.explain, engines: pass.engines}
	t.st.log.bytes = pass.bytes
	// The micro-levels want a known STR+ file; the last cycle left whatever
	// its turn was.
	if _, err := in.sys.LoadPoints(liveFile, data.slices[0], sindex.STRPlus); err != nil {
		return nil, err
	}
	err = serveLedger(cfg, res, &t, microEnv{
		sys: in.sys, file: liveFile, pts: data.slices[0], pool: data.pools[0],
		userBytes: rawPointBytes(data.slices[0]), srv: in.srv, base: in.base,
	})
	return res, err
}
