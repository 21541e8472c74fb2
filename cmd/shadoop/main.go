// Command shadoop is the one-shot SpatialHadoop driver: it stands up a
// simulated cluster, loads a dataset (generated, or read from a text file
// produced by the datagen command), builds the chosen spatial index, runs
// one operation, and reports the answer together with the pruning
// statistics the indexes achieved.
//
// Usage examples:
//
//	shadoop -op skyline -dist clustered -n 500000 -index str+
//	shadoop -op rangequery -rect 2e5,2e5,3e5,3e5 -input pts.csv
//	shadoop -op knn -point 5e5,5e5 -k 10
//	shadoop -op voronoi -n 100000 -index grid
//	shadoop -op union -polygons zips.txt -index grid
//	shadoop -op join -polygons a.txt -polygons2 b.txt -index str+
//	shadoop serve -addr :8080 -n 200000 -index str+
//
// Observability flags:
//
//	-trace out.json    write the final job's trace as Chrome trace_event
//	                   JSON (open in chrome://tracing or ui.perfetto.dev);
//	                   one span per map attempt, shuffle, reduce partition
//	                   and commit
//	-tracejsonl out.jsonl  write the same trace as one span per line
//	-metrics           print the job summary (per-phase times, top-5
//	                   slowest tasks, skewed partitions, histograms) and
//	                   the system metrics (index build and fill stats,
//	                   filter prune ratio, DFS traffic)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

func main() {
	// Subcommand dispatch: "shadoop serve ..." starts the long-running
	// HTTP query server, "shadoop worker ..." a distributed-runtime worker
	// process; everything else is the one-shot driver.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			if err := runServe(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "shadoop serve:", err)
				os.Exit(1)
			}
			return
		case "worker":
			if err := runWorker(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "shadoop worker:", err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		op        = flag.String("op", "skyline", "rangequery|knn|join|skyline|skyline-os|hull|hull-enhanced|closest|farthest|voronoi|delaunay|ann|plot|union|union-enhanced")
		input     = flag.String("input", "", "points file from datagen (generated when empty)")
		polygons  = flag.String("polygons", "", "polygon file for union/join")
		polygons2 = flag.String("polygons2", "", "second polygon file for join")
		rectStr   = flag.String("rect", "", "range query rectangle minx,miny,maxx,maxy")
		pointStr  = flag.String("point", "", "kNN query point x,y")
		k         = flag.Int("k", 10, "kNN k")
		out       = flag.String("out", "", "output file for -op plot (default plot.png)")
		traceFile = flag.String("trace", "", "write the job trace as Chrome trace_event JSON to this file")
		traceJSL  = flag.String("tracejsonl", "", "write the job trace as JSONL spans to this file")
		metrics   = flag.Bool("metrics", false, "print the job metrics summary and system metrics")
		chaosEv   = flag.String("chaos-events", "", "write the injected fault events as JSONL to this file")
	)
	chaosPlan := fault.PlanFlags(flag.CommandLine)
	df := registerDatasetFlags(flag.CommandLine)
	mf := registerMasterFlags(flag.CommandLine)
	flag.Parse()

	sys := df.system(chaosPlan())

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "shadoop:", err)
		os.Exit(1)
	}

	// -master-listen turns this driver into a master: jobs run on
	// registered worker processes instead of in-process goroutines.
	master, err := mf.start(sys)
	if err != nil {
		fatal(err)
	}
	if master != nil {
		defer master.Stop()
	}
	report := func(what string, rep *mapreduce.Report, wall time.Duration) {
		fmt.Printf("%s: %v wall; %d/%d partitions processed; counters: shuffle=%dB output=%d\n",
			what, wall.Round(time.Millisecond), rep.Splits, rep.SplitsTotal,
			rep.Counters[mapreduce.CounterShuffleBytes], rep.OutputCount)
		if *traceFile != "" && rep.Trace != nil {
			if err := writeTrace(*traceFile, rep.Trace.Snapshot().WriteChromeTrace); err != nil {
				fatal(err)
			}
			fmt.Printf("trace: wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceFile)
		}
		if *traceJSL != "" && rep.Trace != nil {
			if err := writeTrace(*traceJSL, rep.Trace.Snapshot().WriteJSONL); err != nil {
				fatal(err)
			}
			fmt.Printf("trace: wrote %s\n", *traceJSL)
		}
		if *metrics {
			fmt.Println("---- job metrics ----")
			rep.WriteSummary(os.Stdout)
			fmt.Println("---- system metrics ----")
			printSystemMetrics(os.Stdout, sys)
		}
		if *chaosEv != "" {
			if in := sys.Cluster().Injector(); in != nil {
				if err := writeTrace(*chaosEv, in.WriteEventsJSONL); err != nil {
					fatal(err)
				}
				fmt.Printf("chaos: wrote %s (%d fault events)\n", *chaosEv, len(in.Events()))
			}
		}
	}

	needsPoints := map[string]bool{
		"rangequery": true, "knn": true, "skyline": true, "skyline-os": true,
		"hull": true, "hull-enhanced": true, "closest": true, "farthest": true,
		"voronoi": true, "delaunay": true, "ann": true, "plot": true,
	}
	if needsPoints[*op] {
		pts, err := loadOrGeneratePoints(*input, *df.dist, *df.n, *df.seed)
		if err != nil {
			fatal(err)
		}
		if *df.index == "heap" {
			if err := sys.LoadPointsHeap("pts", pts); err != nil {
				fatal(err)
			}
			fmt.Printf("loaded %d points as a heap file\n", len(pts))
		} else {
			tech, err := sindex.ParseTechnique(*df.index)
			if err != nil {
				fatal(err)
			}
			start := time.Now()
			f, err := sys.LoadPoints("pts", pts, tech)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("loaded %d points into %d %s partitions in %v\n",
				len(pts), len(f.Index.Cells), tech, time.Since(start).Round(time.Millisecond))
		}
	}

	start := time.Now()
	switch *op {
	case "rangequery":
		rect, err := geomio.DecodeRect(orDefault(*rectStr, "2e5,2e5,3e5,3e5"))
		if err != nil {
			fatal(err)
		}
		res, rep, err := ops.RangeQueryPoints(sys, "pts", rect)
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("range query -> %d points", len(res)), rep, time.Since(start))
	case "knn":
		q, err := geomio.DecodePoint(orDefault(*pointStr, "5e5,5e5"))
		if err != nil {
			fatal(err)
		}
		res, rep, err := ops.KNN(sys, "pts", q, *k)
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("%d-NN of %v", *k, q), rep, time.Since(start))
		for i, p := range res {
			fmt.Printf("  %2d. %v (dist %.2f)\n", i+1, p, p.Dist(q))
		}
	case "skyline":
		sky, rep, err := cg.SkylineSHadoop(sys, "pts")
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("skyline -> %d points", len(sky)), rep, time.Since(start))
	case "skyline-os":
		sky, rep, err := cg.SkylineOutputSensitive(sys, "pts", true)
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("output-sensitive skyline -> %d points", len(sky)), rep, time.Since(start))
	case "hull":
		hull, rep, err := cg.ConvexHullSHadoop(sys, "pts")
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("convex hull -> %d vertices", len(hull)), rep, time.Since(start))
	case "hull-enhanced":
		hull, rep, err := cg.ConvexHullEnhanced(sys, "pts")
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("enhanced convex hull -> %d vertices", len(hull)), rep, time.Since(start))
	case "closest":
		pair, rep, err := cg.ClosestPairSHadoop(sys, "pts")
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("closest pair %v-%v dist %.4f", pair.P, pair.Q, pair.Dist), rep, time.Since(start))
	case "farthest":
		pair, rep, err := cg.FarthestPairSHadoop(sys, "pts")
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("farthest pair %v-%v dist %.1f", pair.P, pair.Q, pair.Dist), rep, time.Since(start))
	case "plot":
		img, rep, err := ops.Plot(sys, "pts", ops.PlotConfig{Width: 512, Height: 512})
		if err != nil {
			fatal(err)
		}
		png, err := ops.EncodePlotPNG(img)
		if err != nil {
			fatal(err)
		}
		file := orDefault(*out, "plot.png")
		if err := os.WriteFile(file, png, 0o644); err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("plot -> %s (%d bytes)", file, len(png)), rep, time.Since(start))
	case "ann":
		res, rep, err := ops.AllNearestNeighbors(sys, "pts")
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("all nearest neighbours -> %d pairs", len(res)), rep, time.Since(start))
	case "delaunay":
		tris, rep, err := cg.DelaunaySHadoop(sys, "pts")
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("delaunay -> %d triangles", len(tris)), rep, time.Since(start))
	case "voronoi":
		regions, rep, stats, err := cg.VoronoiSHadoop(sys, "pts")
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("voronoi -> %d regions", len(regions)), rep, time.Since(start))
		fmt.Printf("  pruning: %d sites in, %d carried after local, %d after V-merge\n",
			stats.Sites, stats.CarriedAfterLocal, stats.CarriedAfterVMerge)
	case "union", "union-enhanced":
		regs, err := loadPolygonFile(*polygons, *df.n, *df.seed)
		if err != nil {
			fatal(err)
		}
		tech, err := sindex.ParseTechnique(orDefault(*df.index, "grid"))
		if err != nil {
			fatal(err)
		}
		if _, err := sys.LoadRegions("polys", regs, tech); err != nil {
			fatal(err)
		}
		start = time.Now()
		if *op == "union-enhanced" {
			segs, rep, err := cg.UnionEnhanced(sys, "polys")
			if err != nil {
				fatal(err)
			}
			report(fmt.Sprintf("enhanced union -> %d boundary segments (length %.0f)",
				len(segs), geom.TotalLength(segs)), rep, time.Since(start))
		} else {
			region, rep, err := cg.UnionSHadoop(sys, "polys")
			if err != nil {
				fatal(err)
			}
			report(fmt.Sprintf("union -> %d rings", len(region.Rings)), rep, time.Since(start))
		}
	case "join":
		a, err := loadPolygonFile(*polygons, *df.n, *df.seed)
		if err != nil {
			fatal(err)
		}
		b, err := loadPolygonFile(*polygons2, *df.n/2, *df.seed+1)
		if err != nil {
			fatal(err)
		}
		tech, err := sindex.ParseTechnique(orDefault(*df.index, "str+"))
		if err != nil {
			fatal(err)
		}
		if _, err := sys.LoadRegions("a", a, tech); err != nil {
			fatal(err)
		}
		if _, err := sys.LoadRegions("b", b, tech); err != nil {
			fatal(err)
		}
		start = time.Now()
		pairs, rep, err := ops.SpatialJoinIndexed(sys, "a", "b")
		if err != nil {
			fatal(err)
		}
		report(fmt.Sprintf("spatial join -> %d pairs", len(pairs)), rep, time.Since(start))
	default:
		fatal(fmt.Errorf("unknown -op %q", *op))
	}

	if err := mf.finish(master); err != nil {
		fatal(err)
	}
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// writeTrace exports a trace with the given writer function to path.
func writeTrace(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSystemMetrics dumps the system registry: index build and fill
// statistics plus DFS traffic.
func printSystemMetrics(w io.Writer, sys *core.System) {
	snap := sys.Metrics().Snapshot()
	for _, name := range snap.SortedCounterNames() {
		fmt.Fprintf(w, "  %-28s %d\n", name, snap.Counters[name])
	}
	gauges := make([]string, 0, len(snap.Gauges))
	for n := range snap.Gauges {
		gauges = append(gauges, n)
	}
	sort.Strings(gauges)
	for _, n := range gauges {
		fmt.Fprintf(w, "  %-28s %.3f\n", n, snap.Gauges[n])
	}
	hists := make([]string, 0, len(snap.Histograms))
	for n := range snap.Histograms {
		hists = append(hists, n)
	}
	sort.Strings(hists)
	for _, n := range hists {
		fmt.Fprintf(w, "  %-28s %s\n", n, snap.Histograms[n])
	}
}

// datasetFlags bundles the dataset and cluster-size flags shared by the
// batch driver and the serve subcommand.
type datasetFlags struct {
	n         *int
	dist      *string
	index     *string
	workers   *int
	blockSize *int64
	seed      *int64
}

// registerDatasetFlags adds the dataset flags to fs.
func registerDatasetFlags(fs *flag.FlagSet) *datasetFlags {
	return &datasetFlags{
		n:         fs.Int("n", 200000, "generated dataset size"),
		dist:      fs.String("dist", "clustered", "distribution for generated points"),
		index:     fs.String("index", "str+", "grid|str|str+|quadtree|kdtree|zcurve|hilbert (heap: batch driver only)"),
		workers:   fs.Int("workers", 25, "simulated cluster size"),
		blockSize: fs.Int64("blocksize", 256<<10, "block size in bytes"),
		seed:      fs.Int64("seed", 1, "seed for generated data"),
	}
}

// system builds the System the flags describe.
func (df *datasetFlags) system(plan fault.Plan) *core.System {
	return core.New(core.Config{Workers: *df.workers, BlockSize: *df.blockSize, Seed: *df.seed, Fault: plan})
}

// loadOrGeneratePoints reads "x,y" lines from path, or generates points.
func loadOrGeneratePoints(path, dist string, n int, seed int64) ([]geom.Point, error) {
	if path == "" {
		d, err := datagen.ParseDistribution(dist)
		if err != nil {
			return nil, err
		}
		return datagen.Points(d, n, datagen.DefaultArea, seed), nil
	}
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	return geomio.DecodePoints(lines)
}

// loadPolygonFile reads polygon records from path, or generates a
// tessellation of roughly n cells.
func loadPolygonFile(path string, n int, seed int64) ([]geom.Region, error) {
	if path == "" {
		side := 2
		for side*side < n/100+4 {
			side++
		}
		polys := datagen.Tessellation(side, side, datagen.DefaultArea, seed)
		out := make([]geom.Region, len(polys))
		for i, pg := range polys {
			out[i] = geom.RegionOf(pg)
		}
		return out, nil
	}
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	out := make([]geom.Region, 0, len(lines))
	for _, l := range lines {
		rg, err := geomio.DecodeRegion(l)
		if err != nil {
			return nil, err
		}
		out = append(out, rg)
	}
	return out, nil
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			lines = append(lines, line)
		}
	}
	return lines, sc.Err()
}
