package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/rpc"
	"strings"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/rtree"
	"spatialhadoop/internal/serve"
	"spatialhadoop/internal/sindex"
	"spatialhadoop/internal/worker"
)

// The micro-levels time one layer's public functions directly, on inputs
// taken from the workload's own corpus and pool, after the traced pass.
// Each figure is the median of microCalls calls; the few that build whole
// files or start a worker make fewer and say so.

const (
	microCalls = 30
	heavyCalls = 7
	// microPoints bounds the inputs of the micro-levels that load a file,
	// so thirty loads stay a second or two.
	microPoints = 50_000
)

// microEnv is what the micro-levels may touch.
type microEnv struct {
	tr        *tracer
	sys       *core.System
	file      string // an STR+-indexed points file of sys
	pts       []geom.Point
	regions   []geom.Region // a region dataset (generated when nil)
	pool      []query
	userBytes int64 // raw record bytes currently stored in sys

	// Serving workloads only.
	srv  *serve.Server
	base string

	// Worker workloads only.
	wc           *workerCluster
	serveWorkers bool
}

// time runs fn calls times after one untimed call and returns the median
// nanoseconds per inner iteration. prep, when given, runs before every
// call, outside its timing. Every timed call is a span.
func (e *microEnv) time(name string, calls, inner int, prep, fn func()) float64 {
	if prep != nil {
		prep()
	}
	fn()
	samples := make([]float64, calls)
	for i := range samples {
		if prep != nil {
			prep()
		}
		d := e.tr.timed(0, 0, "micro/"+name, fn)
		samples[i] = float64(d.Nanoseconds()) / float64(inner)
	}
	return median(samples)
}

func mibPerSec(bytes int, ns float64) float64 { return ratio(float64(bytes)/(1<<20), ns/1e9) }

func rawPointBytes(pts []geom.Point) int64 {
	var n int64
	for _, r := range geomio.EncodePoints(pts) {
		n += int64(len(r))
	}
	return n
}

func rawRegionBytes(regions []geom.Region) int64 {
	var n int64
	for _, rg := range regions {
		n += int64(len(geomio.EncodeRegion(rg)))
	}
	return n
}

// mapSource is the harness-side ops.LocalSource: pins are kept in a map,
// so after the first call the local executors run against resident
// partitions, as they do behind a warm memory tier.
type mapSource struct {
	pins map[string]*ops.LocalPartition
	sf   *sindex.SFilter
}

func (s *mapSource) Pin(sp *mapreduce.Split) (*ops.LocalPartition, error) {
	if p, ok := s.pins[sp.Partition]; ok {
		return p, nil
	}
	p, err := ops.PinSplit(sp)
	if err != nil {
		return nil, err
	}
	s.sf.Refine(p.Key, p.Pts)
	s.pins[sp.Partition] = p
	return p, nil
}

func (s *mapSource) Filter() *sindex.SFilter { return s.sf }

// splitQueries separates the pool by kind, guarantees both are present and
// bounds each.
func splitQueries(pool []query) (ranges, knns []query, err error) {
	for _, q := range pool {
		if q.KNN {
			knns = append(knns, q)
		} else {
			ranges = append(ranges, q)
		}
	}
	if len(ranges) == 0 || len(knns) == 0 {
		return nil, nil, fmt.Errorf("query pool lacks a range or a kNN query")
	}
	// Sixty-four of each are enough for a median and keep thirty calls of
	// the heavier executors within a second.
	return ranges[:min(len(ranges), 64)], knns[:min(len(knns), 64)], nil
}

func microLevels(res *result, e microEnv) error {
	f, err := e.sys.Open(e.file)
	if err != nil {
		return err
	}
	splits := f.Splits()
	if len(splits) == 0 || f.Index == nil {
		return fmt.Errorf("%s has no indexed partitions", e.file)
	}
	ranges, knns, err := splitQueries(e.pool)
	if err != nil {
		return err
	}
	// One representative partition: the median by record count.
	split := splits[len(splits)/2]
	block := split.Blocks[0]
	recs := block.Records()
	bpts, err := block.Points()
	if err != nil {
		return err
	}
	nrec := float64(len(recs))

	// geomio and dfs: one block's records through the codec and the block
	// layer.
	res.set("geomio.decode_ns_per_rec", e.time("geomio.decode", microCalls, 1, nil, func() {
		_, _ = geomio.DecodePoints(recs) // these records decoded at load
	})/nrec)
	res.set("geomio.encode_ns_per_rec", e.time("geomio.encode", microCalls, 1, nil, func() {
		geomio.EncodePoints(bpts)
	})/nrec)

	scratch := dfs.New(dfs.Config{BlockSize: blockSize, DataNodes: sysWorkers})
	res.set("dfs.write_ns_per_rec", e.time("dfs.write", microCalls, 1, nil, func() {
		w, err := scratch.CreateOrReplace("w")
		if err != nil {
			panic(err) // CreateOrReplace deletes first; it cannot collide
		}
		w.SetPartition("c0")
		for i := 0; i < 4; i++ { // four blocks' worth, so block cuts are in
			for _, r := range recs {
				w.WriteRecord(r)
			}
		}
		_ = w.Close() // an in-memory writer's Close cannot fail
	})/(4*nrec))
	var cold *dfs.Block
	res.set("dfs.block_points_cold_us", e.time("dfs.block_points_cold", microCalls, 1,
		func() { cold = dfs.NewBlockFromRecords(block.Partition, recs) },
		func() { _, _ = cold.Points() })/1e3)
	res.set("dfs.block_points_warm_ns", e.time("dfs.block_points_warm", microCalls, 1000, nil, func() {
		for i := 0; i < 1000; i++ {
			_, _ = block.Points()
		}
	}))
	payload := []byte(strings.Join(recs, "\n"))
	var frame []byte
	res.set("dfs.seal_mb_per_s", mibPerSec(len(payload), e.time("dfs.seal", microCalls, 1, nil, func() {
		frame = dfs.SealShard(payload)
	})))
	res.set("dfs.unseal_mb_per_s", mibPerSec(len(payload), e.time("dfs.unseal", microCalls, 1, nil, func() {
		_, _ = dfs.UnsealShard(frame) // sealed two lines up
	})))
	var stored int64
	for _, b := range e.sys.FS().NodeBytes() {
		stored += b
	}
	res.set("dfs.stored_bytes_per_user_byte", ratio(float64(stored), float64(e.userBytes)))

	// sindex: build each technique on a loader-sized sample, route points,
	// probe the bitmap filter.
	mpts := e.pts
	if len(mpts) > microPoints {
		mpts = mpts[:microPoints]
	}
	rng := rand.New(rand.NewSource(2))
	sample := make([]geom.Point, 10_000) // the loader's default sample size
	for i := range sample {
		sample[i] = e.pts[rng.Intn(len(e.pts))]
	}
	space := geom.RectOf(e.pts)
	for _, t := range []struct {
		name string
		t    sindex.Technique
	}{{"strplus", sindex.STRPlus}, {"grid", sindex.Grid}, {"quadtree", sindex.QuadTree}, {"hilbert", sindex.Hilbert}} {
		res.set("sindex.build_ms."+t.name, e.time("sindex.build."+t.name, microCalls, 1, nil, func() {
			sindex.Build(t.t, sample, space, len(splits))
		})/1e6)
	}
	gi := sindex.Build(sindex.STRPlus, sample, space, len(splits))
	res.set("sindex.assign_ns_per_pt", e.time("sindex.assign", microCalls, len(mpts), nil, func() {
		for _, p := range mpts {
			gi.AssignPoint(p)
		}
	}))
	src := &mapSource{pins: make(map[string]*ops.LocalPartition), sf: sindex.NewSFilter(f.Index, 0)}
	for _, sp := range splits {
		if _, err := src.Pin(sp); err != nil {
			return err
		}
	}
	probes := len(ranges) * len(splits)
	res.set("sindex.sfilter_probe_ns", e.time("sindex.sfilter_probe", microCalls, probes, nil, func() {
		for _, q := range ranges {
			for _, sp := range splits {
				src.sf.MayIntersect(sp.Partition, q.Rect)
			}
		}
	}))

	// rtree: bulk-load one partition; search and nearest over the pinned
	// partition that holds each query's centre.
	res.set("rtree.bulk_us_per_kpt", e.time("rtree.bulk", microCalls, 1, nil, func() {
		rtree.BulkPoints(bpts, rtree.DefaultFanout)
	})/1e3/(nrec/1e3))
	home := func(p geom.Point) *ops.LocalPartition {
		for _, sp := range splits {
			if sp.Cover().ContainsPoint(p) {
				return src.pins[sp.Partition]
			}
		}
		return src.pins[split.Partition]
	}
	rangeHomes := make([]*ops.LocalPartition, len(ranges))
	for i, q := range ranges {
		rangeHomes[i] = home(q.Rect.Center())
	}
	knnHomes := make([]*ops.LocalPartition, len(knns))
	for i, q := range knns {
		knnHomes[i] = home(q.Pt)
	}
	var ids []int
	res.set("rtree.search_us", e.time("rtree.search", microCalls, len(ranges), nil, func() {
		for i, q := range ranges {
			ids = rangeHomes[i].Tree.Search(q.Rect, ids[:0])
		}
	})/1e3)
	res.set("rtree.nearest_us", e.time("rtree.nearest", microCalls, len(knns), nil, func() {
		for i, q := range knns {
			knnHomes[i].Tree.NearestWithTies(q.Pt, q.K)
		}
	})/1e3)

	// core: the loaders on a bounded slice, and the open+splits step every
	// request's planner pays.
	loader := newSystem()
	var loadErr error
	res.set("core.load_points_ms", e.time("core.load_points", microCalls, 1, nil, func() {
		if _, err := loader.LoadPoints("micro", mpts, sindex.STRPlus); err != nil {
			loadErr = err
		}
	})/1e6)
	regions := e.regions
	if regions == nil {
		regions = genRegions(3, 30)
	}
	res.set("core.load_regions_ms", e.time("core.load_regions", microCalls, 1, nil, func() {
		if _, err := loader.LoadRegions("microreg", regions, sindex.Grid); err != nil {
			loadErr = err
		}
	})/1e6)
	if loadErr != nil {
		return loadErr
	}
	res.set("core.open_splits_us", e.time("core.open_splits", microCalls, 100, nil, func() {
		for i := 0; i < 100; i++ {
			if of, err := e.sys.Open(e.file); err == nil {
				of.Splits()
			}
		}
	})/1e3)

	// ops: pin, the local executors through the harness-side source, and
	// the per-partition halves the workers run.
	res.set("ops.pin_split_us", e.time("ops.pin_split", microCalls, 1, nil, func() {
		_, _ = ops.PinSplit(split) // pinned once above without error
	})/1e3)
	var opErr error
	res.set("ops.local_range_us", e.time("ops.local_range", microCalls, len(ranges), nil, func() {
		for _, q := range ranges {
			if _, _, err := ops.LocalRangeMatches(e.sys, e.file, src, q.Rect); err != nil {
				opErr = err
			}
		}
	})/1e3)
	res.set("ops.local_knn_us", e.time("ops.local_knn", microCalls, len(knns), nil, func() {
		for _, q := range knns {
			if _, _, err := ops.LocalKNNPoints(e.sys, e.file, src, q.Pt, q.K); err != nil {
				opErr = err
			}
		}
	})/1e3)
	if opErr != nil {
		return opErr
	}
	res.set("ops.partition_range_us", e.time("ops.partition_range", microCalls, len(ranges), nil, func() {
		for i, q := range ranges {
			ops.PartitionRangePoints(rangeHomes[i], q.Rect)
		}
	})/1e3)
	res.set("ops.partition_knn_us", e.time("ops.partition_knn", microCalls, len(knns), nil, func() {
		for i, q := range knns {
			ops.PartitionKNNCandidates(knnHomes[i], q.Pt, q.K)
		}
	})/1e3)

	// mapreduce: split construction and the floor a job pays before any
	// record matters — one partition, zero results — in process (on the
	// scratch system, which has no master) and on the worker cluster.
	res.set("mapreduce.make_splits_us", e.time("mapreduce.make_splits", microCalls, 1, nil, func() {
		_, _ = e.sys.Cluster().MakeSplits([]string{e.file}) // the file was opened above
	})/1e3)
	floorUS := func(name string, sys *core.System, file string, pts []geom.Point) (float64, error) {
		window, err := emptyWindow(sys, file, pts)
		if err != nil {
			return 0, err
		}
		var jobErr error
		us := e.time(name, microCalls, 1, nil, func() {
			got, rep, err := ops.RangeQueryPointsTo(sys, file, window, "micro.floor.out")
			if err == nil && (len(got) != 0 || rep.Splits != 1) {
				err = fmt.Errorf("floor job matched %d points over %d partitions", len(got), rep.Splits)
			}
			if err != nil {
				jobErr = err
			}
		}) / 1e3
		sys.FS().Delete("micro.floor.out")
		return us, jobErr
	}
	us, err := floorUS("mapreduce.job_floor", loader, "micro", mpts)
	if err != nil {
		return err
	}
	res.set("mapreduce.job_floor_us", us)

	// serve: standalone tier and cache, then the handler without a socket.
	tier := serve.NewMemTier(1<<30, obs.NewRegistry())
	epoch := int64(0)
	res.set("serve.memtier_pin_us", e.time("serve.memtier_pin", microCalls, 1, func() { epoch++ }, func() {
		_, _ = tier.PinPartition(e.file, epoch, split) // a fresh epoch each call, so every call pins
	})/1e3)
	cache := serve.NewCache(256, obs.NewRegistry())
	cache.Put("k", payload)
	res.set("serve.cache_get_ns", e.time("serve.cache_get", microCalls, 1000, nil, func() {
		for i := 0; i < 1000; i++ {
			cache.Get("k")
		}
	}))
	if e.srv != nil {
		if err := e.serveMicro(res); err != nil {
			return err
		}
	}
	if e.wc != nil {
		us, err := floorUS("mapreduce.remote_floor", e.sys, e.file, e.pts)
		if err != nil {
			return err
		}
		res.set("mapreduce.remote_floor_us", us)
		if err := e.workerMicro(res, f, split, ranges, knns); err != nil {
			return err
		}
	}
	return nil
}

// emptyWindow finds a tiny window that lies inside exactly one partition
// of the file and contains no point.
func emptyWindow(sys *core.System, file string, pts []geom.Point) (geom.Rect, error) {
	f, err := sys.Open(file)
	if err != nil {
		return geom.Rect{}, err
	}
	splits := f.Splits()
	for _, p := range pts {
		w := geom.Rect{MinX: p.X + 0.25, MinY: p.Y + 0.25, MaxX: p.X + 0.26, MaxY: p.Y + 0.26}
		covering := 0
		for _, sp := range splits {
			if sp.Cover().Intersects(w) {
				covering++
			}
		}
		if covering == 1 && bruteRangeCount(pts, w) == 0 {
			return w, nil
		}
	}
	return geom.Rect{}, fmt.Errorf("%s: no empty one-partition window found", file)
}

// discardWriter is the cheapest http.ResponseWriter: it keeps the status
// and drops the body, so the handler's time is not charged for a
// recorder's buffer growth on 150 KB bodies.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// serveMicro times the handler into a discarding writer against the same
// queries over the socket: the difference is what the socket and net/http
// cost.
func (e *microEnv) serveMicro(res *result) error {
	h := e.srv.Handler()
	n := len(e.pool)
	if n > 64 {
		n = 64
	}
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, e.pool[i].Path, nil)
	}
	var bad error
	handlerNS := e.time("serve.handler", microCalls, n, nil, func() {
		for _, r := range reqs {
			w := &discardWriter{hdr: make(http.Header)}
			h.ServeHTTP(w, r)
			if w.status != 0 && w.status != http.StatusOK {
				bad = fmt.Errorf("handler %s: status %d", r.URL, w.status)
			}
		}
	})
	if bad != nil {
		return bad
	}
	c := newHTTPCaller()
	defer c.close()
	socketNS := e.time("serve.http", microCalls, n, nil, func() {
		for i := 0; i < n; i++ {
			if code, _, _, err := c.get(e.base + e.pool[i].Path); err != nil || code != http.StatusOK {
				bad = fmt.Errorf("http %s: status %d: %v", e.pool[i].Path, code, err)
			}
		}
	})
	if bad != nil {
		return bad
	}
	res.set("serve.handler_us", handlerNS/1e3)
	res.set("serve.socket_share", 1-ratio(handlerNS, socketNS))
	return nil
}

// workerMicro dials a worker's ShardService directly, as the sharded
// engine and a peer map task do.
func (e *microEnv) workerMicro(res *result, f *core.IndexedFile, split *mapreduce.Split, ranges, knns []query) error {
	m := e.wc.m
	m.EnsureServeReplicas([]*mapreduce.Split{split})
	meta := m.ServeMeta(split)
	if meta == nil || len(meta.Blocks) == 0 || len(meta.Blocks[0].Holders) == 0 {
		return fmt.Errorf("partition %s has no replica holder", split.Partition)
	}
	ref := meta.Blocks[0]
	client, err := rpc.Dial("tcp", ref.Holders[0])
	if err != nil {
		return err
	}
	defer client.Close()
	var rpcErr error
	call := func(method string, args, reply any) {
		if err := client.Call(mapreduce.ShardService+"."+method, args, reply); err != nil {
			rpcErr = fmt.Errorf("%s: %w", method, err)
		}
	}

	// DropJob of a job that never existed does nothing on the worker: the
	// round trip is the floor.
	res.set("worker.rpc_floor_us", e.time("worker.rpc_floor", microCalls, 1, nil, func() {
		call("DropJob", mapreduce.DropJobArgs{JobID: -1}, &mapreduce.DropJobReply{})
	})/1e3)
	var frameBytes int
	readNS := e.time("worker.read_block", microCalls, 1, nil, func() {
		var reply mapreduce.ReadBlockReply
		call("ReadBlock", mapreduce.ReadBlockArgs{ID: ref.ID}, &reply)
		frameBytes = len(reply.Frame)
	})
	res.set("worker.read_block_mb_per_s", mibPerSec(frameBytes, readNS))

	if e.serveWorkers {
		epoch := e.sys.FS().FileEpoch(e.file)
		res.set("worker.exec_range_us", e.time("worker.exec_range", microCalls, len(ranges), nil, func() {
			for _, q := range ranges {
				call("ExecRange", mapreduce.ExecRangeArgs{File: e.file, Epoch: epoch, Meta: meta, Query: q.Rect}, &mapreduce.ExecRangeReply{})
			}
		})/1e3)
		res.set("worker.exec_knn_us", e.time("worker.exec_knn", microCalls, len(knns), nil, func() {
			for _, q := range knns {
				call("ExecKNN", mapreduce.ExecKNNArgs{File: e.file, Epoch: epoch, Meta: meta, Q: q.Pt, K: q.K}, &mapreduce.ExecKNNReply{})
			}
		})/1e3)
		var tierBytes int64
		for _, w := range e.wc.workers {
			_, b := w.ServeTierStats()
			tierBytes += b
		}
		res.set("worker.tier_mb", float64(tierBytes)/(1<<20))
	}
	if rpcErr != nil {
		return rpcErr
	}

	// Replica push: a fresh file's blocks, placed and pushed at the
	// cluster's replication. Each call needs a file the plane has never
	// seen, so there are fewer of them.
	push := e.pts
	if len(push) > microPoints/2 {
		push = push[:microPoints/2]
	}
	var pushSplits []*mapreduce.Split
	var pushBytes int
	var pushErr error
	i := 0
	pushNS := e.time("worker.push", heavyCalls, 1, func() {
		i++
		name := fmt.Sprintf("micro.push.%d", i)
		pf, err := e.sys.LoadPoints(name, push, sindex.STRPlus)
		if err != nil {
			pushErr = err
			return
		}
		pushSplits, pushBytes = pf.Splits(), int(pf.File.Bytes)*replication
		defer e.sys.FS().Delete(name) // the blocks stay reachable through pushSplits
	}, func() {
		m.EnsureServeReplicas(pushSplits)
	})
	if pushErr != nil {
		return pushErr
	}
	res.set("worker.push_mb_per_s", mibPerSec(pushBytes, pushNS))

	// Registration: an extra worker's Start returns once the master has
	// registered it. Last, because a third worker changes placement.
	var regErr error
	var extra *worker.Worker
	stopExtra := func() {
		if extra != nil {
			extra.Stop()
			extra.Wait()
			extra = nil
		}
	}
	res.set("worker.register_ms", e.time("worker.register", heavyCalls, 1, stopExtra, func() {
		if extra, regErr = worker.Start(worker.Config{Master: m.Addr(), Tasks: 1, FakePID: 9600}); regErr != nil {
			extra = nil
		}
	})/1e6)
	stopExtra()
	return regErr
}
