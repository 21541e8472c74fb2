package proptest

import (
	"math"
	"testing"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/ops"
)

// TestPointMarkMeansCanonicalText: a point block's text is its points in
// their one spelling — every record is geomio.EncodePoint of the point it
// parses to — so a worker formatting a record from a column gets the
// master's bytes. Checked on every block of every generated point file,
// indexed and heap, under every technique and shape, each a column; and
// on a range job's output, a column of the points it selected, which
// formats the records it selected byte for byte.
func TestPointMarkMeansCanonicalText(t *testing.T) {
	tag := func(b *dfs.Block) byte {
		payload, err := dfs.UnsealShard(dfs.EncodeBlockFrame(b))
		if err != nil {
			t.Fatal(err)
		}
		return payload[0]
	}
	for si, shape := range Shapes {
		for ti, tech := range Techniques {
			seed := int64(100*si + ti + 1)
			sys := core.New(core.Config{BlockSize: 1 << 10, Workers: 4, Seed: seed})
			pts := GenPoints(shape, 96, seed)
			if _, err := sys.LoadPoints("pts", pts, tech); err != nil {
				t.Fatal(err)
			}
			if err := sys.LoadPointsHeap("heap", pts); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ops.RangeQueryPoints(sys, "pts", Space); err != nil {
				t.Fatal(err)
			}
			for file, want := range map[string]byte{"pts": dfs.FrameColumn, "heap": dfs.FrameColumn, "pts.range.out": dfs.FrameColumn} {
				f, err := sys.FS().Open(file)
				if err != nil || f.Records != int64(len(pts)) {
					t.Fatalf("%v/%v: %s: %v, %v", shape, tech, file, f, err)
				}
				for _, b := range f.Blocks {
					if got := tag(b); got != want {
						t.Fatalf("%v/%v: %s block %d travels as %q, want %q", shape, tech, file, b.ID, got, want)
					}
					for _, rec := range b.Records() {
						if p, err := geomio.DecodePoint(rec); err != nil || geomio.EncodePoint(p) != rec {
							t.Fatalf("%v/%v: %s record %q re-encodes as %q (%v)", shape, tech, file, rec, geomio.EncodePoint(p), err)
						}
					}
				}
			}
			in, err := sys.Open("pts")
			if err != nil {
				t.Fatal(err)
			}
			var selected []string
			for _, sp := range in.Splits() {
				for _, b := range sp.Blocks {
					selected = append(selected, b.Records()...)
				}
			}
			out, err := sys.FS().Open("pts.range.out")
			if err != nil {
				t.Fatal(err)
			}
			k := 0
			for _, b := range out.Blocks {
				for _, rec := range b.Records() {
					if rec != selected[k] {
						t.Fatalf("%v/%v: output record %d is %q, selected %q", shape, tech, k, rec, selected[k])
					}
					k++
				}
			}
		}
	}
}

// TestRegionMarkMeansItsBounds: the region mark is a promise about text —
// a marked block's rect i is, bit for bit, the MBR its record i parses to
// — and it is what lets the join sweep and the region filters skip the
// parse. Checked on every block of every generated region file, indexed
// under every technique and heap, with −0 vertices, multi-ring regions
// and empty rings among the generated ones; again on each block opened
// from its frame; and on a range job's output, whose records are the
// selected regions' own text and rects.
func TestRegionMarkMeansItsBounds(t *testing.T) {
	negZero := math.Copysign(0, -1)
	bits := func(r geom.Rect) [4]uint64 {
		return [4]uint64{math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY)}
	}
	check := func(name string, b *dfs.Block, want byte) {
		t.Helper()
		frame := dfs.EncodeBlockFrame(b)
		payload, err := dfs.UnsealShard(frame)
		if err != nil || payload[0] != want {
			t.Fatalf("%s: block %d travels as %q (%v), want %q", name, b.ID, payload[:1], err, want)
		}
		opened, err := dfs.DecodeBlockFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		for _, blk := range []*dfs.Block{b, opened} {
			rects, err := blk.Bounds()
			if err != nil || len(rects) != blk.NumRecords() {
				t.Fatalf("%s: block %d: %d rects for %d records (%v)", name, b.ID, len(rects), blk.NumRecords(), err)
			}
			for i, r := range rects {
				rg, err := geomio.DecodeRegion(blk.Record(i))
				if err != nil || bits(r) != bits(rg.Bounds()) {
					t.Fatalf("%s: block %d record %q holds rect %v, parses to %v (%v)", name, b.ID, blk.Record(i), r, rg.Bounds(), err)
				}
			}
		}
	}
	for ti, tech := range Techniques {
		seed := int64(ti + 1)
		regs := GenRegions(120, seed)
		for i := 0; i+1 < len(regs); i += 7 {
			regs[i] = geom.Region{Rings: []geom.Polygon{regs[i].Rings[0], {}, regs[i+1].Rings[0]}}
		}
		regs = append(regs,
			geom.RegionOf(geom.Polygon{Vertices: []geom.Point{{X: negZero, Y: 0}, {X: 0, Y: negZero}, {X: 0.5, Y: negZero}}}),
			geom.Region{Rings: []geom.Polygon{{Vertices: []geom.Point{{X: 3, Y: negZero}}}, {}}})
		sys := core.New(core.Config{BlockSize: 1 << 10, Workers: 4, Seed: seed})
		if _, err := sys.LoadRegions("regs", regs, tech); err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadRegionsHeap("heap", regs); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ops.RangeQueryRegions(sys, "regs", Space); err != nil {
			t.Fatal(err)
		}
		for file, want := range map[string]byte{"regs": dfs.FrameRegions, "heap": dfs.FrameRegions, "regs.range.out": dfs.FrameRegions} {
			f, err := sys.FS().Open(file)
			if err != nil || f.Records < int64(len(regs)) {
				t.Fatalf("%v: %s: %v, %v", tech, file, f, err)
			}
			for _, b := range f.Blocks {
				check(tech.String()+"/"+file, b, want)
			}
		}
	}
}
