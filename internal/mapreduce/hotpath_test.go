package mapreduce

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spatialhadoop/internal/dfs"
	"spatialhadoop/internal/fault"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
)

// TestPartitionOfStability pins the shard assignment of the inlined
// FNV-1a loop: it must match the stdlib hash/fnv (the previous
// implementation) bit for bit, so indexes and persisted expectations keyed
// by reducer stay valid, and must be stable across releases (pinned
// values).
func TestPartitionOfStability(t *testing.T) {
	keys := []string{"", "a", "k", "alpha", "cell-0007", "x,y", "1", "the quick brown fox"}
	for _, key := range keys {
		h := fnv.New32a()
		h.Write([]byte(key))
		for _, n := range []int{1, 2, 4, 7, 16, 64} {
			want := int(h.Sum32() % uint32(n))
			if got := partitionOf(key, n); got != want {
				t.Errorf("partitionOf(%q, %d) = %d, want %d (hash/fnv)", key, n, got, want)
			}
		}
	}
	// Pinned absolute assignments: these may never change, or previously
	// written expectations about key→reducer routing silently break.
	pinned := map[string]int{"": 5, "a": 12, "alpha": 11, "cell-0007": 13}
	for key, want := range pinned {
		if got := partitionOf(key, 16); got != want {
			t.Errorf("partitionOf(%q, 16) = %d, want pinned %d", key, got, want)
		}
	}
}

func TestPartitionOfAllocFree(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		partitionOf("some-shuffle-key", 16)
	})
	if allocs != 0 {
		t.Errorf("partitionOf allocates %.1f objects per call, want 0", allocs)
	}
}

// TestShuffleCountersSingleSource checks the deduplicated shuffle
// accounting: the shuffle span and the job counters must report identical
// pair and byte totals, both equal to a hand computation over the emitted
// pairs.
func TestShuffleCountersSingleSource(t *testing.T) {
	c := newTestCluster(t, 128, 4)
	var recs []string
	for i := 0; i < 60; i++ {
		recs = append(recs, fmt.Sprintf("w%02d", i%9))
	}
	c.FS().WriteFile("in", recs)
	rep, err := c.Run(closureJob(Job{
		Name:        "counted",
		Input:       []string{"in"},
		NumReducers: 4,
		Output:      "out",
	}, KindFuncs{
		Map: func(ctx *TaskContext, split *Split) error {
			for _, r := range split.Records() {
				ctx.Emit(r, "1")
			}
			return nil
		},
		Reduce: func(ctx *TaskContext, key string, values []string) error {
			ctx.Write(key + "=" + strconv.Itoa(len(values)))
			return nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var wantPairs, wantBytes int64
	for _, r := range recs {
		wantPairs++
		wantBytes += int64(len(r) + 1) // key + "1"
	}
	if got := rep.Counters[CounterShufflePairs]; got != wantPairs {
		t.Errorf("shuffle.pairs counter = %d, want %d", got, wantPairs)
	}
	if got := rep.Counters[CounterShuffleBytes]; got != wantBytes {
		t.Errorf("shuffle.bytes counter = %d, want %d", got, wantBytes)
	}
	var shSpans int
	for _, s := range rep.Trace.Spans() {
		if s.Phase != "shuffle" {
			continue
		}
		shSpans++
		if s.RecordsIn != wantPairs {
			t.Errorf("shuffle span records-in = %d, want %d", s.RecordsIn, wantPairs)
		}
		if s.Bytes != wantBytes {
			t.Errorf("shuffle span bytes = %d, want %d", s.Bytes, wantBytes)
		}
	}
	if shSpans != 1 {
		t.Fatalf("shuffle spans = %d, want 1", shSpans)
	}
}

// TestMapSideShuffleGrouping checks that the map-side sharded shuffle
// delivers every key to exactly one reduce group with all its values, for
// several reducer counts, with a combiner in play.
func TestMapSideShuffleGrouping(t *testing.T) {
	c := newTestCluster(t, 64, 4)
	var recs []string
	for i := 0; i < 120; i++ {
		recs = append(recs, "key"+strconv.Itoa(i%13))
	}
	c.FS().WriteFile("in", recs)
	for _, numRed := range []int{1, 4, 16} {
		out := "out" + strconv.Itoa(numRed)
		rep, err := c.Run(closureJob(Job{
			Name:        "grouping",
			Input:       []string{"in"},
			NumReducers: numRed,
			Output:      out,
		}, KindFuncs{
			Map: func(ctx *TaskContext, split *Split) error {
				for _, r := range split.Records() {
					ctx.Emit(r, "1")
				}
				return nil
			},
			Combine: func(ctx *TaskContext, key string, values []string) error {
				ctx.Emit(key, strconv.Itoa(len(values)))
				return nil
			},
			Reduce: func(ctx *TaskContext, key string, values []string) error {
				total := 0
				for _, v := range values {
					n, err := strconv.Atoi(v)
					if err != nil {
						return err
					}
					total += n
				}
				ctx.Write(key + "=" + strconv.Itoa(total))
				return nil
			},
		}))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := c.FS().ReadAll(out)
		sort.Strings(got)
		var want []string
		for k := 0; k < 13; k++ {
			count := 120/13 + boolToInt(k < 120%13)
			want = append(want, "key"+strconv.Itoa(k)+"="+strconv.Itoa(count))
		}
		sort.Strings(want)
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Errorf("numRed=%d grouped output = %v, want %v", numRed, got, want)
		}
		if rep.ReduceTasks != numRed {
			t.Errorf("reduce tasks = %d, want %d", rep.ReduceTasks, numRed)
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRetriedAttemptObservesDecodeCache is the regression test for point
// blocks under retries: with injected failures, the retried attempts re-run
// the map function, but a block written by WritePoints is its points, so
// no attempt parses anything — every Points call hands out the one column
// — and the output must be identical to a failure-free run.
func TestRetriedAttemptObservesDecodeCache(t *testing.T) {
	buildInput := func(c *Cluster) {
		w, err := c.FS().Create("pts")
		if err != nil {
			t.Fatal(err)
		}
		pts, lens := make([]geom.Point, 64), make([]uint8, 64)
		for i := range pts {
			pts[i] = geom.Pt(float64(i), float64(i%7))
			lens[i] = uint8(len(geomio.EncodePoint(pts[i])))
		}
		w.WritePoints(pts, lens)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Each block's first Points() names its array; a later attempt that
	// gets another array parsed the block.
	var decoded sync.Map // block ID → &pts[0]
	var decodes, redecodes atomic.Int64
	job := func(out string) *Job {
		return closureJob(Job{
			Name:   "sum-x",
			Input:  []string{"pts"},
			Output: out,
		}, KindFuncs{
			Map: func(ctx *TaskContext, split *Split) error {
				for _, b := range split.Blocks {
					pts, err := b.Points()
					if err != nil {
						return err
					}
					if first, seen := decoded.LoadOrStore(b.ID, &pts[0]); !seen {
						decodes.Add(1)
					} else if first != &pts[0] {
						redecodes.Add(1)
					}
				}
				pts, err := split.Points()
				if err != nil {
					return err
				}
				sum := 0.0
				for _, p := range pts {
					sum += p.X
				}
				ctx.Write(strconv.FormatFloat(sum, 'g', -1, 64))
				return nil
			},
		})
	}

	clean := newTestCluster(t, 256, 4)
	buildInput(clean)
	if _, err := clean.Run(job("out")); err != nil {
		t.Fatal(err)
	}
	want, _ := clean.FS().ReadAll("out")
	sort.Strings(want)

	flaky := newTestCluster(t, 256, 4)
	buildInput(flaky)
	f, _ := flaky.FS().Open("pts")
	nblocks := int64(len(f.Blocks))
	decoded = sync.Map{}
	decodes.Store(0)
	flaky.SetFault(fault.Plan{Seed: 2, MapFailRate: 0.3})
	rep, err := flaky.Run(job("out"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters[CounterTaskRetries] == 0 || len(flaky.Injector().Events()) == 0 {
		t.Fatal("expected injected retries; the regression test exercised nothing")
	}
	got, _ := flaky.FS().ReadAll("out")
	sort.Strings(got)
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("flaky output = %v, want %v", got, want)
	}
	if decodes.Load() != nblocks || redecodes.Load() != 0 {
		t.Errorf("%d blocks decoded, %d of them again across retries; want %d, each once",
			decodes.Load(), redecodes.Load(), nblocks)
	}
}

// TestSplitRecordsShareSingleBlock pins the no-copy fast path: a
// single-block split serves the block's record slice directly.
func TestSplitRecordsShareSingleBlock(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 1 << 20, DataNodes: 2})
	fs.WriteFile("f", []string{"a", "b", "c"})
	f, _ := fs.Open("f")
	s := &Split{Blocks: f.Blocks}
	recs := s.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %v", recs)
	}
	if &recs[0] != &f.Blocks[0].Records()[0] {
		t.Error("single-block split copied the record slice")
	}
	if s.NumRecords() != 3 {
		t.Errorf("NumRecords = %d", s.NumRecords())
	}
}

// TestSplitPointsMultiBlock checks the concatenating path decodes across
// blocks in order.
func TestSplitPointsMultiBlock(t *testing.T) {
	fs := dfs.New(dfs.Config{BlockSize: 24, DataNodes: 2})
	var want []geom.Point
	var recs []string
	for i := 0; i < 20; i++ {
		p := geom.Pt(float64(i), float64(i))
		want = append(want, p)
		recs = append(recs, geomio.EncodePoint(p))
	}
	fs.WriteFile("f", recs)
	f, _ := fs.Open("f")
	if len(f.Blocks) < 2 {
		t.Fatalf("blocks = %d, want multi-block file", len(f.Blocks))
	}
	s := &Split{Blocks: f.Blocks}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(want) {
		t.Fatalf("points = %d, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("point %d = %v, want %v", i, pts[i], want[i])
		}
	}
}
