package ops

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/mapreduce"
)

// slotCorpus is four partitions' points over overlapping extents, so one
// window reaches several partitions and windows share points.
func slotCorpus() [][]geom.Point {
	area := geom.NewRect(0, 0, 1000, 1000)
	return [][]geom.Point{
		datagen.Points(datagen.Clustered, 3000, area, 41),
		datagen.Points(datagen.Uniform, 2000, area, 42),
		datagen.Points(datagen.Uniform, 1500, geom.NewRect(200, 200, 700, 700), 43),
		latticePoints(rand.New(rand.NewSource(44)), 900, 40),
	}
}

func pinCorpus(t testing.TB, corpus [][]geom.Point) []*LocalPartition {
	parts := make([]*LocalPartition, len(corpus))
	for i, pts := range corpus {
		parts[i] = pinPoints(t, pts)
	}
	return parts
}

// TestRangeStreamFirstUseConcurrent: goroutines streaming overlapping
// windows over the same freshly pinned partitions — so they race to write
// the same points' objects, and to allocate a partition's slots — each get
// exactly the stream a serial run over a separate pin gives.
func TestRangeStreamFirstUseConcurrent(t *testing.T) {
	corpus := slotCorpus()
	rng := rand.New(rand.NewSource(45))
	windows := make([]geom.Rect, 48)
	for i := range windows {
		x, y := rng.Float64()*800, rng.Float64()*800
		windows[i] = geom.NewRect(x, y, x+50+rng.Float64()*350, y+50+rng.Float64()*350)
	}
	windows[0] = geom.WorldRect()
	serial, want := pinCorpus(t, corpus), make([]RangeFragment, len(windows))
	for i, q := range windows {
		if err := RangeStream(&want[i], serial, q, true); err != nil {
			t.Fatal(err)
		}
	}
	shared := pinCorpus(t, corpus)
	const streamers = 6
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, streamers*len(windows))
	for g := 0; g < streamers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			var got RangeFragment
			// Each streamer walks the windows from its own offset and
			// backwards on odd g: every window is some streamer's first.
			for j := range windows {
				i := (g*len(windows)/streamers + j) % len(windows)
				if g%2 == 1 {
					i = len(windows) - 1 - i
				}
				if err := RangeStream(&got, shared, windows[i], true); err != nil {
					errs <- err.Error()
					return
				}
				w := want[i]
				if !bytes.Equal(got.Frag, w.Frag) || !slices.Equal(got.Keys, w.Keys) || !slices.Equal(got.Counts, w.Counts) {
					errs <- "window " + windows[i].String() + ": concurrent stream differs from the serial one"
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// The whole-plane window carried every point: each is ready and its
	// slot holds its object, written once rather than formatted per use.
	for i, part := range shared {
		for id, p := range part.Pts {
			want, err := AppendPointJSON(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			if !part.spelled([]int{id}) || !bytes.Equal(part.object(id), want) {
				t.Fatalf("partition %d point %d: slot holds %q, want %q", i, id, part.object(id), want)
			}
		}
	}
}

// TestKNNWritesNoSlots: a partition that only answers kNN rounds formats no
// object and allocates no slots; its footprint is what the pin reserved.
func TestKNNWritesNoSlots(t *testing.T) {
	parts := pinCorpus(t, slotCorpus())
	pinned := make([]int64, len(parts))
	for i, part := range parts {
		pinned[i] = part.Bytes
	}
	var out mapreduce.ExecKNNReply
	for _, q := range []geom.Point{geom.Pt(500, 500), geom.Pt(0, 0), geom.Pt(333, 901)} {
		for _, k := range []int{1, 10, 100} {
			KNNSets(&out, parts, q, k)
		}
	}
	if len(out.Cands) == 0 {
		t.Fatal("no kNN candidates")
	}
	for i, part := range parts {
		if part.slots != nil {
			t.Errorf("partition %d: kNN allocated %d bytes of slots", i, len(part.slots))
		}
		if part.Bytes != pinned[i] {
			t.Errorf("partition %d: Bytes moved from %d to %d", i, pinned[i], part.Bytes)
		}
	}
}
