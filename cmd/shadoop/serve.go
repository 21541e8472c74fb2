package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/serve"
	"spatialhadoop/internal/sindex"
)

// runServe is the "shadoop serve" subcommand: stand up a cluster, load
// the serving corpus (an indexed points file "pts" plus region files "a"
// and "b" for the join endpoint), and serve queries over HTTP until
// SIGTERM/SIGINT triggers a graceful drain.
//
// Endpoints:
//
//	GET /rangequery?file=pts&rect=minx,miny,maxx,maxy   (&explain=1 inlines the execution report)
//	GET /knn?file=pts&point=x,y&k=10
//	GET /join?left=a&right=b
//	GET /plot?file=pts&width=256&height=256   (PNG)
//	GET /healthz                              (503 while draining)
//	GET /metrics                              (Prometheus text exposition)
//	GET /metrics.json                         (JSON registry dump)
//	GET /debug/trace/{id}                     (span tree of a recent request, by X-Trace-Id)
//	GET /debug/partitions                     (hot-partition skew report)
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8080", "HTTP listen address")
		cacheSize   = fs.Int("cache", 256, "result cache entries (negative disables)")
		maxInFlight = fs.Int("max-inflight", 4, "jobs executing concurrently")
		queueDepth  = fs.Int("queue", 64, "jobs that may wait for a run slot")
		jobDeadline = fs.Duration("job-deadline", 30*time.Second, "per-job execution deadline (0 = none)")
		memTier     = fs.Int64("memtier-bytes", 0, "in-memory partition tier budget in bytes (0 = 64 MiB default, negative disables)")
		planner     = fs.String("planner", serve.PlannerAuto, "query engine routing: auto|local|mapreduce|sharded")
		drainWait   = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		accessLog   = fs.String("accesslog", "", "append one JSON line per request to this file (- for stdout)")
		debugAddr   = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); off when empty")
	)
	df := registerDatasetFlags(fs)
	mf := registerMasterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !serve.ValidPlanner(*planner) {
		return fmt.Errorf("serve: unknown engine %q (want auto, local, mapreduce or sharded)", *planner)
	}

	sys := df.system(fault.Plan{})

	// -master-listen lets the query server execute MapReduce-planned
	// queries on registered worker processes; its shadoop_mr_* metric
	// families surface through /metrics because the master shares the
	// system registry.
	master, err := mf.start(sys)
	if err != nil {
		return err
	}
	if master != nil {
		defer master.Stop()
		defer mf.finish(master)
	}

	d, err := datagen.ParseDistribution(*df.dist)
	if err != nil {
		return err
	}
	tech, err := sindex.ParseTechnique(*df.index)
	if err != nil {
		return err
	}
	pts := datagen.Points(d, *df.n, datagen.DefaultArea, *df.seed)
	start := time.Now()
	f, err := sys.LoadPoints("pts", pts, tech)
	if err != nil {
		return err
	}
	fmt.Printf("serve: loaded %d points into %d %s partitions in %v\n",
		len(pts), len(f.Index.Cells), tech, time.Since(start).Round(time.Millisecond))

	toRegions := func(pgs []geom.Polygon) []geom.Region {
		out := make([]geom.Region, len(pgs))
		for i, pg := range pgs {
			out[i] = geom.RegionOf(pg)
		}
		return out
	}
	if _, err := sys.LoadRegions("a", toRegions(datagen.Tessellation(8, 8, datagen.DefaultArea, *df.seed+1)), tech); err != nil {
		return err
	}
	if _, err := sys.LoadRegions("b", toRegions(datagen.Tessellation(7, 7, datagen.DefaultArea, *df.seed+2)), tech); err != nil {
		return err
	}

	var logW io.Writer
	switch *accessLog {
	case "":
	case "-":
		logW = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("accesslog: %w", err)
		}
		defer f.Close()
		logW = f
	}

	srv := serve.New(sys, serve.Config{
		Addr:         *addr,
		CacheSize:    *cacheSize,
		MaxInFlight:  *maxInFlight,
		QueueDepth:   *queueDepth,
		JobDeadline:  *jobDeadline,
		AccessLog:    logW,
		MemTierBytes: *memTier,
		Planner:      *planner,
	})

	if *debugAddr != "" {
		// pprof lives on its own listener so profiling endpoints are never
		// reachable through the query port.
		go func() {
			fmt.Printf("serve: pprof on http://%s/debug/pprof/\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "serve: pprof listener: %v\n", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("serve: listening on %s (cache=%d max-inflight=%d queue=%d planner=%s memtier-bytes=%d)\n",
		*addr, *cacheSize, *maxInFlight, *queueDepth, *planner, *memTier)
	hint := *addr
	if strings.HasPrefix(hint, ":") {
		hint = "localhost" + hint
	}
	fmt.Printf("serve: try  curl 'http://%s/rangequery?file=pts&rect=2e5,2e5,3e5,3e5'\n", hint)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err // listener failed before any signal
	case sig := <-sigc:
		fmt.Printf("serve: %v: draining (stop admitting, finish in-flight jobs)\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	// Final metrics flush: the operator-facing summary of the run.
	snap := srv.Metrics().Snapshot()
	fmt.Println("serve: final metrics")
	for _, name := range snap.SortedCounterNames() {
		fmt.Printf("  %-28s %d\n", name, snap.Counters[name])
	}
	fmt.Println("serve: drained cleanly")
	return nil
}
