package proptest

import (
	"testing"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/ops"
)

// TestPointMarkMeansCanonicalText: the point mark is a promise about text
// — a marked block's every record is geomio.EncodePoint of the point it
// parses to — and it is what lets a worker format a record from a column
// and get the stored bytes. Checked on every block of every generated
// point file, indexed and heap, under every technique and shape; and a
// job's own output, which holds the same text, carries no mark.
func TestPointMarkMeansCanonicalText(t *testing.T) {
	tag := func(b *dfs.Block) byte {
		payload, err := dfs.UnsealShard(dfs.EncodeBlockFrame(b, false))
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
			for file, want := range map[string]byte{"pts": dfs.FrameColumn, "heap": dfs.FrameColumn, "pts.range.out": dfs.FrameText} {
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
		}
	}
}
