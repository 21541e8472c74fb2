package pigeon

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spatialhadoop/internal/cg"
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
)

func newInterp(t *testing.T) (*Interp, *strings.Builder) {
	t.Helper()
	var out strings.Builder
	sys := core.New(core.Config{BlockSize: 8 << 10, Workers: 4, Seed: 1})
	return New(sys, &out), &out
}

func TestLexer(t *testing.T) {
	toks, err := lex("a = LOAD 'x.csv' AS points; -- comment\nDUMP a LIMIT(3);")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[0].text != "a" || toks[2].text != "LOAD" || toks[3].text != "x.csv" {
		t.Fatalf("bad tokens: %+v", toks[:5])
	}
	if kinds[len(kinds)-1] != tokEOF {
		t.Fatal("missing EOF")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("a = 'unterminated"); err == nil {
		t.Error("expected unterminated string error")
	}
	if _, err := lex("a = #"); err == nil {
		t.Error("expected bad character error")
	}
}

func TestParseShapes(t *testing.T) {
	stmts, err := Parse(`
		pts = GENERATE uniform 100 SEED(7);
		idx = INDEX pts BY 'grid';
		r = RANGE idx RECT(0, 0, 10, 10);
		DUMP r LIMIT(5);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("got %d statements", len(stmts))
	}
	if stmts[0].Op != "GENERATE" || stmts[0].Target != "pts" {
		t.Errorf("stmt 0: %+v", stmts[0])
	}
	if stmts[2].Op != "RANGE" || len(stmts[2].Numbers) != 4 {
		t.Errorf("stmt 2: %+v", stmts[2])
	}
	if stmts[3].Target != "" || stmts[3].Op != "DUMP" {
		t.Errorf("stmt 3: %+v", stmts[3])
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"x = ;",
		"BOGUS pts;",
		"x = SKYLINE pts", // missing semicolon
		"DUMP x = 3;",
		"SKYLINE pts;", // result not assigned
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestEndToEndScript(t *testing.T) {
	in, out := newInterp(t)
	err := in.Exec(`
		pts = GENERATE clustered 5000 SEED(9);
		idx = INDEX pts BY 'str+';
		DESCRIBE idx;
		near = RANGE idx RECT(100000, 100000, 500000, 400000);
		nn  = KNN idx POINT(500000, 500000) K(5);
		sky = SKYLINE idx;
		hull = CONVEXHULL idx;
		cp  = CLOSESTPAIR idx;
		DUMP sky;
		DUMP nn LIMIT(2);
		DUMP pts LIMIT(2);
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against direct computation.
	gen := datagen.Points(datagen.Clustered, 5000, datagen.DefaultArea, 9)
	// A generated relation is stored as points, in the blocks its text
	// would take, keeps no text of its own, and reads, dumps and indexes
	// as that text.
	recs := geomio.EncodePoints(gen)
	pts, _ := in.Var("pts")
	f, err := in.sys.FS().Open(pts.File)
	if err != nil {
		t.Fatal(err)
	}
	textFS := core.New(core.Config{BlockSize: 8 << 10, Workers: 4, Seed: 1}).FS()
	if err := textFS.WriteFile("text", recs); err != nil {
		t.Fatal(err)
	}
	tf, _ := textFS.Open("text")
	if len(f.Blocks) != len(tf.Blocks) || f.Bytes != tf.Bytes || len(f.Blocks) < 2 {
		t.Fatalf("GENERATE stored %d blocks of %d bytes; its text takes %d of %d", len(f.Blocks), f.Bytes, len(tf.Blocks), tf.Bytes)
	}
	for i, b := range f.Blocks {
		if payload, err := dfs.UnsealShard(dfs.EncodeBlockFrame(b)); err != nil || payload[0] != dfs.FrameColumn || b.Bytes != tf.Blocks[i].Bytes {
			t.Fatalf("generated block %d ships as %q (%v), %d bytes", i, payload[:1], err, b.Bytes)
		}
	}
	if got, err := in.sys.FS().ReadAll(pts.File); err != nil || !slices.Equal(got, recs) || pts.Records != nil {
		t.Fatalf("the generated file reads as other text (%v), or its value holds %d records of text", err, len(pts.Records))
	}
	if idx, _ := in.Var("idx"); !slices.Equal(idx.Records, recs) {
		t.Error("the index of a generated relation holds other records than its text")
	}
	if want := fmt.Sprintf("pts (points, 5000 records):\n  %s\n  %s\n  ... 4998 more\n", recs[0], recs[1]); !strings.HasSuffix(out.String(), want) {
		t.Errorf("DUMP pts printed %q, want %q", out.String()[strings.LastIndex(out.String(), "pts ("):], want)
	}
	sky, _ := in.Var("sky")
	if len(sky.Records) != len(cg.SkylineSingle(gen)) {
		t.Errorf("skyline size %d, want %d", len(sky.Records), len(cg.SkylineSingle(gen)))
	}
	hull, _ := in.Var("hull")
	if len(hull.Records) != len(cg.ConvexHullSingle(gen)) {
		t.Errorf("hull size %d, want %d", len(hull.Records), len(cg.ConvexHullSingle(gen)))
	}
	nn, _ := in.Var("nn")
	if len(nn.Records) != 5 {
		t.Errorf("knn returned %d", len(nn.Records))
	}
	near, _ := in.Var("near")
	wantNear := 0
	rect := geom.NewRect(100000, 100000, 500000, 400000)
	for _, p := range gen {
		if rect.ContainsPoint(p) {
			wantNear++
		}
	}
	if len(near.Records) != wantNear {
		t.Errorf("range returned %d, want %d", len(near.Records), wantNear)
	}
	cp, _ := in.Var("cp")
	if len(cp.Records) != 1 {
		t.Fatalf("closest pair records: %v", cp.Records)
	}
	text := out.String()
	if !strings.Contains(text, "partitions=") || !strings.Contains(text, "technique=str+") {
		t.Errorf("DESCRIBE output missing metadata: %q", text)
	}
	if !strings.Contains(text, "... 3 more") {
		t.Errorf("DUMP LIMIT output wrong: %q", text)
	}
}

func TestVoronoiDelaunayUnionScript(t *testing.T) {
	in, _ := newInterp(t)
	// Provide a polygon "file" via the test hook.
	polys := datagen.Tessellation(6, 6, geom.NewRect(0, 0, 1000, 1000), 3)
	var lines []string
	for _, pg := range polys {
		lines = append(lines, geomio.EncodePolygon(pg))
	}
	in.ReadFile = func(path string) ([]byte, error) {
		if path != "zips.txt" {
			return nil, fmt.Errorf("unexpected path %q", path)
		}
		return []byte(strings.Join(lines, "\n")), nil
	}
	err := in.Exec(`
		pts  = GENERATE uniform 2000 SEED(3);
		idx  = INDEX pts BY 'grid';
		vd   = VORONOI idx;
		dt   = DELAUNAY idx;
		zips = LOAD 'zips.txt' AS regions;
		zidx = INDEX zips BY 'grid';
		u    = UNION zidx;
	`)
	if err != nil {
		t.Fatal(err)
	}
	vd, _ := in.Var("vd")
	if len(vd.Records) != 2000 {
		t.Errorf("voronoi regions: %d", len(vd.Records))
	}
	dt, _ := in.Var("dt")
	gen := datagen.Points(datagen.Uniform, 2000, datagen.DefaultArea, 3)
	if len(dt.Records) != len(cg.DelaunaySingle(gen)) {
		t.Errorf("delaunay triangles: %d, want %d", len(dt.Records), len(cg.DelaunaySingle(gen)))
	}
	u, _ := in.Var("u")
	if len(u.Records) == 0 {
		t.Error("union produced no rings")
	}
}

func TestJoinScript(t *testing.T) {
	in, _ := newInterp(t)
	a := datagen.RandomPolygons(60, 4, 60, geom.NewRect(0, 0, 1000, 1000), 5)
	b := datagen.RandomPolygons(50, 4, 70, geom.NewRect(0, 0, 1000, 1000), 6)
	enc := func(polys []geom.Polygon) string {
		var ls []string
		for _, pg := range polys {
			ls = append(ls, geomio.EncodePolygon(pg))
		}
		return strings.Join(ls, "\n")
	}
	in.ReadFile = func(path string) ([]byte, error) {
		switch path {
		case "a.txt":
			return []byte(enc(a)), nil
		case "b.txt":
			return []byte(enc(b)), nil
		}
		return nil, fmt.Errorf("no file %q", path)
	}
	err := in.Exec(`
		a  = LOAD 'a.txt' AS regions;
		b  = LOAD 'b.txt' AS regions;
		ia = INDEX a BY 'str+';
		ib = INDEX b BY 'str+';
		j  = JOIN ia ib;
		jh = JOIN a b;
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, x := range a {
		for _, y := range b {
			if x.Bounds().Intersects(y.Bounds()) {
				want++
			}
		}
	}
	j, _ := in.Var("j")
	if len(j.Records) != want {
		t.Errorf("indexed join: %d pairs, want %d", len(j.Records), want)
	}
	jh, _ := in.Var("jh")
	if len(jh.Records) != want {
		t.Errorf("PBSM join: %d pairs, want %d", len(jh.Records), want)
	}
}

func TestStoreAnnAndPlot(t *testing.T) {
	in, _ := newInterp(t)
	dir := t.TempDir()
	err := in.Exec(`
		pts = GENERATE clustered 3000 SEED(5);
		idx = INDEX pts BY 'grid';
		nn  = ANN idx;
		STORE nn INTO '` + dir + `/nn.txt';
		PLOT idx INTO '` + dir + `/density.png' SIZE(32, 32);
	`)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := os.ReadFile(dir + "/nn.txt")
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(nn), "\n"); lines != 3000 {
		t.Errorf("stored %d ANN lines, want 3000", lines)
	}
	png, err := os.ReadFile(dir + "/density.png")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(png), "\x89PNG") {
		t.Error("PLOT did not write a PNG")
	}
}

func TestRuntimeErrors(t *testing.T) {
	in, _ := newInterp(t)
	for _, src := range []string{
		"DUMP nothing;",
		"x = SKYLINE nothing;",
		"x = GENERATE pareto 10;",
		"x = GENERATE uniform 10; y = INDEX x BY 'warp';",
		"x = GENERATE uniform 10; y = KNN x POINT(1,1) K(2);", // not indexed... heap KNN allowed? requireFile passes, Indexed false
	} {
		err := in.Exec(src)
		if strings.Contains(src, "KNN") {
			// KNN over a non-indexed file is legal (single split fallback).
			continue
		}
		if err == nil {
			t.Errorf("Exec(%q): expected error", src)
		}
	}
}

// TestLoadStoresWhatItDecoded: LOAD stores what it parsed. A points file's
// blocks are columns and a regions file's blocks are region-marked, whose
// Bounds allocate nothing; the file reads back in the canonical spelling,
// every block is as large as that text, and the variable keeps the
// input's spelling for DUMP and STORE. An empty input loads as an empty
// relation.
func TestLoadStoresWhatItDecoded(t *testing.T) {
	gen := datagen.Points(datagen.Uniform, 1500, geom.NewRect(0, 0, 1000, 1000), 4)
	var ptsIn, ptsCanon []string
	for _, p := range gen {
		// A trailing zero, spaces around the record: spellings the loader
		// accepts and the file does not keep.
		ptsIn = append(ptsIn, " "+strconv.FormatFloat(p.X, 'f', 4, 64)+"0,"+strconv.FormatFloat(p.Y, 'f', -1, 64)+" ")
	}
	ptsIn = append(ptsIn, "1.50,2")
	polys := datagen.Tessellation(8, 8, geom.NewRect(0, 0, 1000, 1000), 5)
	var regsIn, regsCanon []string
	for _, pg := range polys {
		rec := geomio.EncodePolygon(pg)
		regsIn = append(regsIn, strings.ReplaceAll(rec, " ", "  "))
		regsCanon = append(regsCanon, rec)
	}
	dir := t.TempDir()
	files := map[string]string{"pts.txt": strings.Join(ptsIn, "\n"), "regs.txt": strings.Join(regsIn, "\n"), "empty.txt": "\n\n"}
	in, out := newInterp(t)
	in.ReadFile = func(path string) ([]byte, error) { return []byte(files[path]), nil }
	err := in.Exec(`
		p = LOAD 'pts.txt' AS POINTS;
		r = LOAD 'regs.txt' AS REGIONS;
		e = LOAD 'empty.txt' AS POINTS;
		DUMP e;
		STORE p INTO '` + dir + `/p.txt';
		DUMP p LIMIT(0);
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ptsIn {
		p, err := geomio.DecodePoint(strings.TrimSpace(s))
		if err != nil {
			t.Fatal(err)
		}
		ptsCanon = append(ptsCanon, geomio.EncodePoint(p))
	}
	if ptsCanon[len(ptsCanon)-1] != "1.5,2" || ptsCanon[0] == strings.TrimSpace(ptsIn[0]) {
		t.Fatalf("the input spellings are canonical already: %q, %q", ptsIn[0], ptsIn[len(ptsIn)-1])
	}

	for _, c := range []struct {
		name  string
		tag   byte
		canon []string
	}{{"p", dfs.FrameColumn, ptsCanon}, {"r", dfs.FrameRegions, regsCanon}} {
		v, _ := in.Var(c.name)
		f, err := in.sys.FS().Open(v.File)
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "p" && len(f.Blocks) < 2 {
			t.Fatalf("%s: %d blocks, want several", c.name, len(f.Blocks))
		}
		for i, b := range f.Blocks {
			if payload, err := dfs.UnsealShard(dfs.EncodeBlockFrame(b)); err != nil || payload[0] != c.tag {
				t.Fatalf("%s: block %d ships as %q (%v), want %q", c.name, i, payload[:1], err, c.tag)
			}
			var size int64
			for j := range b.NumRecords() {
				size += int64(len(b.Record(j))) + 1
			}
			if b.Bytes != size {
				t.Errorf("%s: block %d is %d bytes, its text %d", c.name, i, b.Bytes, size)
			}
			if c.tag == dfs.FrameRegions {
				if n := testing.AllocsPerRun(10, func() { b.Bounds() }); n != 0 {
					t.Errorf("%s: block %d's Bounds allocates %v times, want 0", c.name, i, n)
				}
			}
		}
		if got, err := in.sys.FS().ReadAll(v.File); err != nil || !slices.Equal(got, c.canon) {
			t.Errorf("%s: the file reads as other text than the canonical spelling (%v)", c.name, err)
		}
		var trimmed []string
		for _, s := range map[string][]string{"p": ptsIn, "r": regsIn}[c.name] {
			trimmed = append(trimmed, strings.TrimSpace(s))
		}
		if !slices.Equal(v.Records, trimmed) {
			t.Errorf("%s: the variable holds other records than the input's", c.name)
		}
	}
	stored, err := os.ReadFile(dir + "/p.txt")
	if err != nil || !strings.HasSuffix(string(stored), "\n1.50,2\n") {
		t.Errorf("STORE wrote %q... (%v), want the input's spelling", stored[max(0, len(stored)-20):], err)
	}
	if want := "e (points, 0 records):\np (points, 1501 records):\n  ... 1501 more\n"; out.String() != want {
		t.Errorf("DUMP printed %q, want %q", out.String(), want)
	}
	if e, _ := in.Var("e"); e.File == "" || !in.sys.FS().Exists(e.File) {
		t.Error("an empty LOAD stored no file")
	}
}
