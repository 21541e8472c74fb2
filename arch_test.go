package spatialhadoop_test

import (
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// An archRule keeps one of the architecture's "one place per decision"
// rules: step names it and msg says what to do instead. It fires on each
// printed line of code (see scan) matching re, in the files in lists (the
// module when empty) and allow does not. Both list prefixes, such as
// "cmd/, internal/ops/plan.go"; allow's also match the first line of the
// enclosing declaration, as "func (fs *FileSystem) publish(".
type archRule struct {
	step, msg, re, in, allow string
	tests                    bool              // whether _test.go files count
	from                     map[string]string // a retired name → the rule it was deleted under
}

func archRules() []archRule {
	peer := "one way to reach a peer (every call is a Peers.Call on the call layer's own frame; net/rpc serves the benchmark harness only, in the worker's gob arm; no gob codec)"
	calls := "one call layer (Peers and ServeRPC speak the frame themselves; a handler is a (ctx, *Args, *Reply) method in one static table)"
	gobArm := "internal/worker/gob.go"
	wire := "one field list per message (a layout is one wire method over internal/wirefmt; varints are read and written there only)"
	span := "one span model (jobs and requests record into one context-carried span tree; internal/obs declares one span type)"
	mbrs := "MBRs are read, not parsed (a region block holds its records' MBRs; the join and region range filters ask Block.Bounds)"
	knew := "a block is what its writer knew (a loader stores the points or regions it decoded; no directory persistence, no decoded view kept on a block)"
	index := "a file carries the index its loader built (dfs.File.Index is the loader's *sindex.GlobalIndex; no master text is printed or parsed)"
	plan := "one query plan (range, kNN, plot and join jobs filter through ops.Plan on Split.Cover, the one record bound; partition heat is recorded by the plan only)"
	serving := "one serving executor (planner=local is the scatter with the master as its only holder; the ops.Local* wrappers serve the benchmark harness only)"
	spell := "a pinned point is spelled on first use (a range stream writes a point's object into its slot, unexported, and the one merge in internal/ops copies it; no pin-time arena)"
	bound, filter := "a second record bound; test Split.Cover (content MBR, else boundary)", "a filter step outside the query plan; bind a plan and call Plan.Range or Plan.Join"
	from, retired := map[string]string{}, []string(nil)
	for step, names := range map[string]string{
		wire: "appendWire decodeWire", span: "ReqSpan NewReqTrace", mbrs: "Payload BlockRegions", knew: "SaveDir LoadDir ptsOnce boundsOnce",
		index: "SetMaster", spell: "FragOff buildFragments", serving: "encodeRangeBodyMatches LocalRangeMatchesCtx LocalKNNPointsCtx",
		plan: "withHeat foldPartitionHeat countPartitionRecords countPartitionMatches contentOf",
		"a point is stored as a point (a points block is a column from the writer on; no point mark vouches for point text)":                 "pointMark HoldsPoints",
		"a column is written as a run (WritePoints and WriteRegions cut blocks as views of the caller's arrays; no per-record column write)": "WritePoint WriteRegion",
		"a task is tallied once (an attempt's tallies live in its metrics buffer; a job's report is its winning tasks' rows)":                "MapWorkSum MapTaskMax ReduceWorkSum ReduceTaskMax MapSelected ShardTotals okTasks recordDuration",
		"a pool run is remote only (when the pool empties the job restarts in process; the master holds no shards)":                          "masterShard storeMasterShards fetchShard GroupShards",
		"one point sort (every point sort is slices.SortFunc with geom.Point.Compare)":                                                       "SortPointsXY",
		calls: "clientCodec serverCodec checkLayout errNoLayout masterService masterBlocks shardServer",
	} {
		for _, n := range strings.Fields(names) {
			from[n], retired = " (deleted under: "+step+")", append(retired, n)
		}
	}
	return []archRule{
		{peer, "a net/rpc client; call a peer with Peers.Call", `"net/rpc"\.(Dial|NewClient)|\*"net/rpc"\.Client`, "internal/, cmd/", gobArm, false, nil},
		{peer, "encoding/gob imported by non-test code; give the message a layout in internal/mapreduce/wire.go", `^import "encoding/gob"$`, "internal/, cmd/", "", false, nil},
		{peer, "a net/rpc connection or registration; serve a table of mapreduce.Handle methods with ServeRPC", `ServeConn|ServeCodec|NewClientWithCodec|RegisterName`, "internal/, cmd/", gobArm, true, nil},
		{"net/rpc stays in the worker's gob arm (the benchmark harness dials workers with rpc.Dial; every other call is the call layer's)", "net/rpc imported outside internal/worker/gob.go; call a peer with Peers.Call and serve one with ServeRPC", `^import "net/rpc"$`, "", gobArm + ", benchmark/", false, nil},
		{"one way to change the namespace (fs.files is written in dfs.go's publish only)", "fs.files assigned or deleted outside (*FileSystem).publish in internal/dfs/dfs.go", `\w+\.files\[[^]]*\] *=[^=]|delete\(\w+\.files`, "internal/dfs/", "func (fs *FileSystem) publish(", false, nil},
		{"one place knows what a block is (block-frame codecs live in internal/dfs only; internal/wirefmt holds the rules they follow)", "a block-frame encoder or decoder outside internal/dfs; the next payload shape goes in internal/dfs/frame.go", `^func (\([^)]*\) )?\w*[Bb]lockFrame\w*\(`, "", "internal/dfs/, internal/wirefmt/", false, nil},
		{wire, "a varint read or written outside internal/wirefmt; run it through a wirefmt.Codec, which holds the minimal-length rule", `"encoding/binary"\.(Append|Put|Read)?U?[Vv]arint\b`, "", "internal/wirefmt/", false, nil},
		{"rtree is a test oracle only (no non-test Go under internal/ or cmd/ imports internal/rtree; a partition is probed as its sorted points, a block is scanned)", "internal/rtree imported by non-test code; probe a partition's ops.SortedPoints (LocalPartition.Tree, or sortedPoints over a split's blocks) or scan the block (ops/probe.go) instead", `^import "spatialhadoop/internal/rtree"$`, "", "internal/rtree/, benchmark/", false, nil},
		{span, "a second tracer; open spans with obs.StartSpan on the context", `\btrace"?\.Start\(`, "internal/, cmd/", "", false, nil},
		{span, "internal/obs declares a second span type; record into obs.Span", `\w+Span struct\b`, "internal/obs/", "", false, nil},
		{mbrs, "a region's MBR parsed from its text where its block holds it; ask Block.Bounds", `"spatialhadoop/internal/geomio"\.DecodeRegion\b`, "internal/ops/remote.go, internal/ops/rangequery.go", "", false, nil},
		{"matches are selected, not formatted (a range map hands its matches to TaskContext.WriteSelected; the master writes them from its own blocks)", "a range map copies its matches' text into the output; select them with ctx.WriteSelected", `\.Write\([a-z]+\.Record\(`, "internal/ops/remote.go, internal/ops/rangequery.go", "", false, nil},
		{knew, "text stored for a later job to parse, or a parse kept on a block; store what was decoded (LoadPointsHeap, LoadRegionsHeap, WritePoints, WriteRegions)", `\bFS\(\)\.WriteFile\(`, "internal/, cmd/, examples/", "", false, nil},
		{index, "a global index handed over as text; attach it with Writer.SetIndex and read File.Index", `"spatialhadoop/internal/sindex"\.(Encode|Decode)\b|\bMaster\s+\[\]byte\b`, "internal/, cmd/, examples/", "", false, nil},
		{plan, "partition heat kept outside the query plan; filter through Plan.Range/Plan.KNN/Plan.Join and report searched partitions with Plan.Searched", `\b(RecordScan|RecordPrune|AddRecords|AddMatches)\b`, "internal/, cmd/", "internal/sindex/, internal/ops/plan.go", false, nil},
		{plan, bound, `\bextent\(`, "internal/, cmd/", "", false, nil},
		{plan, bound, `\.ContentMBR\b`, "internal/, cmd/", "internal/mapreduce/, internal/serve/planner.go, internal/worker/worker.go", false, nil},
		{plan, bound, `\bContentMBR\.IsEmpty\(`, "internal/, cmd/", "internal/mapreduce/mapreduce.go, internal/serve/planner.go", false, nil},
		{plan, filter, `\bRangeCandidates\b`, "internal/, cmd/", "internal/ops/plan.go, internal/serve/planner.go", false, nil},
		{plan, filter, `\bExtra:`, "internal/ops/", "internal/ops/plan.go", false, nil},
		{serving, "a second serving driver; answer local and sharded queries through the one scatter (planQuery or planRange, then execRange or execKNN)", `\bLocal(RangeMatches|KNNPoints)\b`, "", "internal/ops/, benchmark/", false, nil},
		{"no bitmap filter on the serving path (a query is pruned by its partitions' covers alone; the sFilter serves the benchmark harness only)", "the sFilter is back on a query path; prune on Split.Cover (ops.RangeCandidates) and estimate from content MBRs (serve.estimateRecords)", `\b(SFilter|NewSFilter|EstimateFraction|Refine|MayIntersect)\b`, "", "internal/sindex/, benchmark/", false, nil},
		{"no reflective sort in the geometry kernels (internal/geom, internal/cg and internal/ops sort with slices.SortFunc)", "sort.Slice in a geometry kernel; use slices.SortFunc with a comparator that is < 0 exactly when the old less holds", `"sort"\.Slice(Stable)?\(`, "internal/geom/, internal/cg/, internal/ops/", "", false, nil},
		{"retired names", "a name deleted under a rule is declared or used again; keep to that rule", `\b(` + strings.Join(retired, "|") + `)\b`, "", "", true, from},
	}
}

// scan parses every Go file under root but in testdata/ and dot
// directories (nested modules included), prints each declaration without
// its comments, and returns, per rule, each printed line where it fires.
func scan(t *testing.T, root string, rules []archRule) [][]string {
	hits, res := make([][]string, len(rules)), make([]*regexp.Regexp, len(rules))
	for i, r := range rules {
		res[i] = regexp.MustCompile(r.re)
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && p != root && (d.Name() == "testdata" || d.Name()[0] == '.') {
			return filepath.SkipDir
		} else if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		var apply []int // the rules that read this file
		for i, r := range rules {
			if (r.tests || !strings.HasSuffix(p, "_test.go")) && (r.in == "" || within(rel, r.in)) && !within(rel, r.allow) {
				apply = append(apply, i)
			}
		}
		match := func(decl, line string) {
			for _, i := range apply {
				if m := res[i].FindString(line); m != "" && !within(decl, rules[i].allow) {
					hits[i] = append(hits[i], p+": "+strings.TrimSpace(line)+rules[i].from[m])
				}
			}
		}
		pkgs, sels := map[string]string{}, map[*ast.Ident]bool{}
		for _, im := range f.Imports {
			name := path.Base(strings.Trim(im.Path.Value, "\"`"))
			if im.Name != nil {
				name = im.Name.Name
			}
			pkgs[name] = im.Path.Value
			match("", "import "+im.Path.Value)
		}
		for _, d := range f.Decls {
			// A package prints as its quoted path and a literal as _: no string
			// matches a rule, and no alias or dot import hides a package.
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					sels[n.Sel] = true
				case *ast.Ident:
					if p := pkgs[n.Name]; p != "" && n.Name != "_" {
						n.Name = p
					} else if p := pkgs["."]; p != "" && !sels[n] && ast.IsExported(n.Name) {
						n.Name = p + "." + n.Name
					}
				case *ast.BasicLit:
					n.Value = "_"
				}
				return true
			})
			var b strings.Builder
			printer.Fprint(&b, fset, d)
			lines := strings.Split(b.String(), "\n")
			for _, line := range lines {
				match(lines[0], line) // a declaration's first line names it
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

func within(name, list string) bool {
	for _, prefix := range strings.Split(list, ", ") {
		if prefix != "" && strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// TestArchitecture checks the rules over the module and over two trees laid
// out like it: testdata/arch/quiet (comments, strings, allowed files and
// scopes), where none may fire, and testdata/arch/planted, where each must.
func TestArchitecture(t *testing.T) {
	rules := archRules()
	real, quiet, planted := scan(t, ".", rules), scan(t, "testdata/arch/quiet", rules), scan(t, "testdata/arch/planted", rules)
	for i, r := range rules {
		if hits := append(real[i], quiet[i]...); hits != nil {
			t.Errorf("%s: %s:\n\t%s", r.step, r.msg, strings.Join(hits, "\n\t"))
		}
		if planted[i] == nil {
			t.Errorf("%s: %s: no planted violation caught", r.step, r.re)
		}
	}
}
