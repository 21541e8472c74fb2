package pigeon

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

// Kind describes what a pigeon variable holds.
type Kind string

// Variable kinds.
const (
	KindPoints    Kind = "points"
	KindRegions   Kind = "regions"
	KindPairs     Kind = "pairs"     // join results, tab-separated
	KindPointPair Kind = "pointpair" // closest/farthest pair
	KindVoronoi   Kind = "voronoi"
	KindTriangles Kind = "triangles"
)

// Value is the result bound to a pigeon variable: a record batch plus,
// for indexed datasets, the name of the backing file in the system FS.
type Value struct {
	Kind Kind
	// Records are the encoded rows (geomio formats); nil for a GENERATEd
	// relation, whose rows are its File's, formatted when asked for.
	Records []string
	// File is the DFS file name for indexed/loaded datasets ("" for
	// in-memory query results).
	File string
	// Indexed reports whether File carries a global index.
	Indexed bool
}

// Interp executes pigeon statements against a SpatialHadoop system.
type Interp struct {
	sys  *core.System
	vars map[string]Value
	out  io.Writer
	// ReadFile loads script-referenced paths; overridable for tests.
	ReadFile func(path string) ([]byte, error)
	nfiles   int
}

// New creates an interpreter writing DUMP output to out.
func New(sys *core.System, out io.Writer) *Interp {
	return &Interp{
		sys:      sys,
		vars:     make(map[string]Value),
		out:      out,
		ReadFile: os.ReadFile,
	}
}

// Var returns the value bound to name.
func (in *Interp) Var(name string) (Value, bool) {
	v, ok := in.vars[name]
	return v, ok
}

// Exec parses and runs a whole script.
func (in *Interp) Exec(src string) error {
	stmts, err := Parse(src)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if err := in.run(st); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) fresh(prefix string) string {
	in.nfiles++
	return fmt.Sprintf("pigeon.%s.%d", prefix, in.nfiles)
}

func (in *Interp) lookup(st Statement, i int) (Value, error) {
	if i >= len(st.Args) {
		return Value{}, fmt.Errorf("pigeon: line %d: %s needs an input variable", st.Line, st.Op)
	}
	v, ok := in.vars[st.Args[i]]
	if !ok {
		return Value{}, fmt.Errorf("pigeon: line %d: undefined variable %q", st.Line, st.Args[i])
	}
	return v, nil
}

// lookupRecords is lookup plus the value's rows: its Records, or, for a
// GENERATEd relation, its file's text.
func (in *Interp) lookupRecords(st Statement, i int) (Value, []string, error) {
	v, err := in.lookup(st, i)
	if err != nil || v.Records != nil || v.File == "" {
		return v, v.Records, err
	}
	recs, err := in.sys.FS().ReadAll(v.File)
	return v, recs, err
}

// needNumbers fetches st.Numbers with arity checking.
func needNumbers(st Statement, n int) ([]float64, error) {
	if len(st.Numbers) < n {
		return nil, fmt.Errorf("pigeon: line %d: %s needs %d numeric arguments, got %d",
			st.Line, st.Op, n, len(st.Numbers))
	}
	return st.Numbers, nil
}

func (in *Interp) run(st Statement) error {
	switch st.Op {
	case "LOAD":
		return in.runLoad(st)
	case "GENERATE":
		return in.runGenerate(st)
	case "INDEX":
		return in.runIndex(st)
	case "RANGE":
		return in.runRange(st)
	case "KNN":
		return in.runKNN(st)
	case "JOIN":
		return in.runJoin(st)
	case "SKYLINE", "CONVEXHULL":
		return in.runPointsOp(st)
	case "CLOSESTPAIR", "FARTHESTPAIR":
		return in.runPairOp(st)
	case "VORONOI":
		return in.runVoronoi(st)
	case "DELAUNAY":
		return in.runDelaunay(st)
	case "UNION":
		return in.runUnion(st)
	case "ANN":
		return in.runANN(st)
	case "PLOT":
		return in.runPlot(st)
	case "DUMP":
		return in.runDump(st)
	case "DESCRIBE":
		return in.runDescribe(st)
	case "STORE":
		return in.runStore(st)
	default:
		return fmt.Errorf("pigeon: line %d: unhandled operation %s", st.Line, st.Op)
	}
}

// runLoad: v = LOAD 'path' AS POINTS|REGIONS;
func (in *Interp) runLoad(st Statement) error {
	if len(st.Strings) != 1 {
		return fmt.Errorf("pigeon: line %d: LOAD needs one quoted path", st.Line)
	}
	kind := KindPoints
	for _, a := range st.Args {
		switch strings.ToUpper(a) {
		case "AS", "POINTS", "POINT":
		case "REGIONS", "POLYGONS":
			kind = KindRegions
		default:
			return fmt.Errorf("pigeon: line %d: LOAD: unexpected %q", st.Line, a)
		}
	}
	data, err := in.ReadFile(st.Strings[0])
	if err != nil {
		return fmt.Errorf("pigeon: line %d: %v", st.Line, err)
	}
	var recs []string
	for _, l := range strings.Split(string(data), "\n") {
		l = strings.TrimSpace(l)
		if l != "" {
			recs = append(recs, l)
		}
	}
	// Decode eagerly, so errors point at the LOAD statement, and store what
	// was decoded: the file holds points as a column and regions with their
	// MBRs, spelled canonically, while the variable keeps the input's
	// spelling for DUMP and STORE.
	var pts []geom.Point
	var regions []geom.Region
	if kind == KindPoints {
		pts, err = geomio.DecodePoints(recs)
	} else {
		regions = make([]geom.Region, len(recs))
		for i := 0; i < len(recs) && err == nil; i++ {
			regions[i], err = geomio.DecodeRegion(recs[i])
		}
	}
	if err != nil {
		return fmt.Errorf("pigeon: line %d: %v", st.Line, err)
	}
	file := in.fresh("load")
	if kind == KindPoints {
		err = in.sys.LoadPointsHeap(file, pts)
	} else {
		err = in.sys.LoadRegionsHeap(file, regions)
	}
	if err != nil {
		return err
	}
	in.vars[st.Target] = Value{Kind: kind, Records: recs, File: file}
	return nil
}

// runGenerate: v = GENERATE <dist> <n> [SEED s];
func (in *Interp) runGenerate(st Statement) error {
	if len(st.Args) < 1 {
		return fmt.Errorf("pigeon: line %d: GENERATE needs a distribution", st.Line)
	}
	dist, err := datagen.ParseDistribution(strings.ToLower(st.Args[0]))
	if err != nil {
		return fmt.Errorf("pigeon: line %d: %v", st.Line, err)
	}
	nums, err := needNumbers(st, 1)
	if err != nil {
		return err
	}
	n := int(nums[0])
	seed := int64(1)
	if len(nums) > 1 {
		seed = int64(nums[1])
	}
	pts := datagen.Points(dist, n, datagen.DefaultArea, seed)
	file := in.fresh("gen")
	if err := in.sys.LoadPointsHeap(file, pts); err != nil {
		return err
	}
	in.vars[st.Target] = Value{Kind: KindPoints, File: file}
	return nil
}

// runIndex: v = INDEX <var> BY 'technique';
func (in *Interp) runIndex(st Statement) error {
	src, recs, err := in.lookupRecords(st, 0)
	if err != nil {
		return err
	}
	if len(st.Strings) != 1 {
		return fmt.Errorf("pigeon: line %d: INDEX needs a quoted technique (e.g. BY 'str+')", st.Line)
	}
	tech, err := sindex.ParseTechnique(strings.ToLower(st.Strings[0]))
	if err != nil {
		return fmt.Errorf("pigeon: line %d: %v", st.Line, err)
	}
	file := in.fresh("idx")
	switch src.Kind {
	case KindPoints:
		var pts []geom.Point
		if src.Records == nil {
			pts, err = in.sys.FS().ReadPointsCtx(context.Background(), src.File)
		} else {
			pts, err = geomio.DecodePoints(recs)
		}
		if err != nil {
			return err
		}
		if _, err := in.sys.LoadPoints(file, pts, tech); err != nil {
			return err
		}
	case KindRegions:
		regions := make([]geom.Region, len(recs))
		for i, r := range recs {
			rg, err := geomio.DecodeRegion(r)
			if err != nil {
				return err
			}
			regions[i] = rg
		}
		if _, err := in.sys.LoadRegions(file, regions, tech); err != nil {
			return err
		}
	default:
		return fmt.Errorf("pigeon: line %d: cannot index a %s value", st.Line, src.Kind)
	}
	in.vars[st.Target] = Value{Kind: src.Kind, Records: recs, File: file, Indexed: true}
	return nil
}

// requireFile ensures the value is a stored dataset.
func requireFile(st Statement, v Value) error {
	if v.File == "" {
		return fmt.Errorf("pigeon: line %d: %s needs a loaded or indexed dataset", st.Line, st.Op)
	}
	return nil
}

// runRange: v = RANGE <var> RECT(x1,y1,x2,y2);
func (in *Interp) runRange(st Statement) error {
	src, err := in.lookup(st, 0)
	if err != nil {
		return err
	}
	if err := requireFile(st, src); err != nil {
		return err
	}
	nums, err := needNumbers(st, 4)
	if err != nil {
		return err
	}
	rect := geom.NewRect(nums[0], nums[1], nums[2], nums[3])
	switch src.Kind {
	case KindPoints:
		res, _, err := ops.RangeQueryPoints(in.sys, src.File, rect)
		if err != nil {
			return err
		}
		in.vars[st.Target] = Value{Kind: KindPoints, Records: geomio.EncodePoints(res)}
	case KindRegions:
		res, _, err := ops.RangeQueryRegions(in.sys, src.File, rect)
		if err != nil {
			return err
		}
		recs := make([]string, len(res))
		for i, rg := range res {
			recs[i] = geomio.EncodeRegion(rg)
		}
		in.vars[st.Target] = Value{Kind: KindRegions, Records: recs}
	default:
		return fmt.Errorf("pigeon: line %d: RANGE over %s", st.Line, src.Kind)
	}
	return nil
}

// runKNN: v = KNN <var> POINT(x,y) K(<k>);
func (in *Interp) runKNN(st Statement) error {
	src, err := in.lookup(st, 0)
	if err != nil {
		return err
	}
	if err := requireFile(st, src); err != nil {
		return err
	}
	if src.Kind != KindPoints {
		return fmt.Errorf("pigeon: line %d: KNN needs a points dataset", st.Line)
	}
	nums, err := needNumbers(st, 3)
	if err != nil {
		return fmt.Errorf("pigeon: line %d: KNN needs POINT(x,y) and K(k)", st.Line)
	}
	res, _, err := ops.KNN(in.sys, src.File, geom.Pt(nums[0], nums[1]), int(nums[2]))
	if err != nil {
		return err
	}
	in.vars[st.Target] = Value{Kind: KindPoints, Records: geomio.EncodePoints(res)}
	return nil
}

// runJoin: v = JOIN <a> <b>;
func (in *Interp) runJoin(st Statement) error {
	a, err := in.lookup(st, 0)
	if err != nil {
		return err
	}
	b, err := in.lookup(st, 1)
	if err != nil {
		return err
	}
	if err := requireFile(st, a); err != nil {
		return err
	}
	if err := requireFile(st, b); err != nil {
		return err
	}
	if a.Kind != KindRegions || b.Kind != KindRegions {
		return fmt.Errorf("pigeon: line %d: JOIN needs two region datasets", st.Line)
	}
	var recs []string
	if a.Indexed && b.Indexed {
		pairs, _, err := ops.SpatialJoinIndexed(in.sys, a.File, b.File)
		if err != nil {
			return err
		}
		for _, p := range pairs {
			recs = append(recs, p.Left+"\t"+p.Right)
		}
	} else {
		pairs, _, err := ops.SpatialJoinPBSM(in.sys, a.File, b.File, 0)
		if err != nil {
			return err
		}
		for _, p := range pairs {
			recs = append(recs, p.Left+"\t"+p.Right)
		}
	}
	in.vars[st.Target] = Value{Kind: KindPairs, Records: recs}
	return nil
}

// runPointsOp handles SKYLINE and CONVEXHULL.
func (in *Interp) runPointsOp(st Statement) error {
	src, err := in.lookup(st, 0)
	if err != nil {
		return err
	}
	if err := requireFile(st, src); err != nil {
		return err
	}
	if src.Kind != KindPoints {
		return fmt.Errorf("pigeon: line %d: %s needs a points dataset", st.Line, st.Op)
	}
	var res []geom.Point
	if st.Op == "SKYLINE" {
		if src.Indexed {
			res, _, err = cg.SkylineSHadoop(in.sys, src.File)
		} else {
			res, _, err = cg.SkylineHadoop(in.sys, src.File)
		}
	} else {
		if src.Indexed {
			res, _, err = cg.ConvexHullSHadoop(in.sys, src.File)
		} else {
			res, _, err = cg.ConvexHullHadoop(in.sys, src.File)
		}
	}
	if err != nil {
		return err
	}
	in.vars[st.Target] = Value{Kind: KindPoints, Records: geomio.EncodePoints(res)}
	return nil
}

// runPairOp handles CLOSESTPAIR and FARTHESTPAIR.
func (in *Interp) runPairOp(st Statement) error {
	src, err := in.lookup(st, 0)
	if err != nil {
		return err
	}
	if err := requireFile(st, src); err != nil {
		return err
	}
	if src.Kind != KindPoints {
		return fmt.Errorf("pigeon: line %d: %s needs a points dataset", st.Line, st.Op)
	}
	var pair geom.PointPair
	if st.Op == "CLOSESTPAIR" {
		if !src.Indexed {
			return fmt.Errorf("pigeon: line %d: CLOSESTPAIR needs an indexed dataset (INDEX ... BY 'grid')", st.Line)
		}
		pair, _, err = cg.ClosestPairSHadoop(in.sys, src.File)
	} else {
		if src.Indexed {
			pair, _, err = cg.FarthestPairSHadoop(in.sys, src.File)
		} else {
			pair, _, err = cg.FarthestPairHadoop(in.sys, src.File)
		}
	}
	if err != nil {
		return err
	}
	rec := geomio.EncodePoint(pair.P) + " " + geomio.EncodePoint(pair.Q)
	in.vars[st.Target] = Value{Kind: KindPointPair, Records: []string{rec}}
	return nil
}

func (in *Interp) runVoronoi(st Statement) error {
	src, err := in.lookup(st, 0)
	if err != nil {
		return err
	}
	if err := requireFile(st, src); err != nil {
		return err
	}
	if !src.Indexed || src.Kind != KindPoints {
		return fmt.Errorf("pigeon: line %d: VORONOI needs points indexed BY 'grid' or 'str+'", st.Line)
	}
	regions, _, _, err := cg.VoronoiSHadoop(in.sys, src.File)
	if err != nil {
		return err
	}
	recs := make([]string, len(regions))
	for i, sr := range regions {
		recs[i] = geomio.EncodePoint(sr.Site) + "|" + geomio.EncodeRegion(geom.RegionOf(sr.Region))
	}
	in.vars[st.Target] = Value{Kind: KindVoronoi, Records: recs}
	return nil
}

func (in *Interp) runDelaunay(st Statement) error {
	src, err := in.lookup(st, 0)
	if err != nil {
		return err
	}
	if err := requireFile(st, src); err != nil {
		return err
	}
	if !src.Indexed || src.Kind != KindPoints {
		return fmt.Errorf("pigeon: line %d: DELAUNAY needs points indexed with a disjoint technique", st.Line)
	}
	tris, _, err := cg.DelaunaySHadoop(in.sys, src.File)
	if err != nil {
		return err
	}
	recs := make([]string, len(tris))
	for i, tr := range tris {
		recs[i] = geomio.EncodePoint(tr.A) + " " + geomio.EncodePoint(tr.B) + " " + geomio.EncodePoint(tr.C)
	}
	in.vars[st.Target] = Value{Kind: KindTriangles, Records: recs}
	return nil
}

func (in *Interp) runUnion(st Statement) error {
	src, err := in.lookup(st, 0)
	if err != nil {
		return err
	}
	if err := requireFile(st, src); err != nil {
		return err
	}
	if src.Kind != KindRegions {
		return fmt.Errorf("pigeon: line %d: UNION needs a region dataset", st.Line)
	}
	region, _, err := cg.UnionSHadoop(in.sys, src.File)
	if err != nil {
		return err
	}
	recs := make([]string, len(region.Rings))
	for i, ring := range region.Rings {
		recs[i] = geomio.EncodeRegion(geom.Region{Rings: []geom.Polygon{ring}})
	}
	in.vars[st.Target] = Value{Kind: KindRegions, Records: recs}
	return nil
}

// runANN: v = ANN <var>;
func (in *Interp) runANN(st Statement) error {
	src, err := in.lookup(st, 0)
	if err != nil {
		return err
	}
	if err := requireFile(st, src); err != nil {
		return err
	}
	if !src.Indexed || src.Kind != KindPoints {
		return fmt.Errorf("pigeon: line %d: ANN needs points indexed with a disjoint technique", st.Line)
	}
	res, _, err := ops.AllNearestNeighbors(in.sys, src.File)
	if err != nil {
		return err
	}
	recs := make([]string, len(res))
	for i, r := range res {
		recs[i] = geomio.EncodePoint(r.Point) + " " + geomio.EncodePoint(r.Neighbor)
	}
	in.vars[st.Target] = Value{Kind: KindPairs, Records: recs}
	return nil
}

// runPlot: PLOT <var> INTO 'file.png' [SIZE(w,h)];
func (in *Interp) runPlot(st Statement) error {
	src, err := in.lookup(st, 0)
	if err != nil {
		return err
	}
	if err := requireFile(st, src); err != nil {
		return err
	}
	if src.Kind != KindPoints {
		return fmt.Errorf("pigeon: line %d: PLOT needs a points dataset", st.Line)
	}
	if len(st.Strings) != 1 {
		return fmt.Errorf("pigeon: line %d: PLOT needs INTO 'file.png'", st.Line)
	}
	cfg := ops.PlotConfig{}
	if len(st.Numbers) >= 2 {
		cfg.Width, cfg.Height = int(st.Numbers[0]), int(st.Numbers[1])
	}
	img, _, err := ops.Plot(in.sys, src.File, cfg)
	if err != nil {
		return err
	}
	b, err := ops.EncodePlotPNG(img)
	if err != nil {
		return err
	}
	return os.WriteFile(st.Strings[0], b, 0o644)
}

// runDump: DUMP <var> [LIMIT(n)];
func (in *Interp) runDump(st Statement) error {
	src, recs, err := in.lookupRecords(st, 0)
	if err != nil {
		return err
	}
	limit := len(recs)
	if len(st.Numbers) > 0 {
		limit = int(st.Numbers[0])
	}
	fmt.Fprintf(in.out, "%s (%s, %d records):\n", st.Args[0], src.Kind, len(recs))
	for i, r := range recs {
		if i >= limit {
			fmt.Fprintf(in.out, "  ... %d more\n", len(recs)-limit)
			break
		}
		fmt.Fprintf(in.out, "  %s\n", r)
	}
	return nil
}

// runDescribe: DESCRIBE <var>;
func (in *Interp) runDescribe(st Statement) error {
	src, recs, err := in.lookupRecords(st, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(in.out, "%s: kind=%s records=%d indexed=%v",
		st.Args[0], src.Kind, len(recs), src.Indexed)
	if src.File != "" {
		if f, err := in.sys.Open(src.File); err == nil {
			fmt.Fprintf(in.out, " blocks=%d", len(f.File.Blocks))
			if f.Index != nil {
				fmt.Fprintf(in.out, " partitions=%d technique=%v", len(f.Index.Cells), f.Index.Technique)
			}
		}
	}
	fmt.Fprintln(in.out)
	return nil
}

// runStore: STORE <var> INTO 'path';
func (in *Interp) runStore(st Statement) error {
	_, recs, err := in.lookupRecords(st, 0)
	if err != nil {
		return err
	}
	if len(st.Strings) != 1 {
		return fmt.Errorf("pigeon: line %d: STORE needs a quoted path", st.Line)
	}
	return os.WriteFile(st.Strings[0], []byte(strings.Join(recs, "\n")+"\n"), 0o644)
}
