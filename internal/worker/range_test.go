package worker

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/geomio"
	"spatialhadoop/internal/mapreduce"
	"spatialhadoop/internal/obs"
	"spatialhadoop/internal/ops"
	"spatialhadoop/internal/sindex"
)

// TestRangeAnswersTheSameEverywhere: a range job's matches travel as
// selections and land as the master's own records, and that changes no
// answer. Over an indexed point file, a heap one, and a WriteFile copy of
// the same points in spellings no writer produces ("1.50,2", "+7", "05"),
// the output file of every range job is, byte for byte, the definitional
// answer — the kept splits' records inside the query, block by block, in
// id order — in process and on a worker pool at replication 0 and 2; the
// points it returns are that text parsed; and a region range query answers
// alike on a marked and a text copy.
func TestRangeAnswersTheSameEverywhere(t *testing.T) {
	area := geom.NewRect(0, 0, 1000, 1000)
	queries := []geom.Rect{geom.NewRect(0, 0, 600, 500), geom.NewRect(300, 300, 900, 900), area}
	pts := datagen.Points(datagen.Clustered, 1200, area, 7)
	// Odd spellings of the same points, each parsing to its point exactly.
	odd := []string{"1.50,2"}
	for i, rec := range geomio.EncodePoints(pts) {
		x, y, _ := strings.Cut(rec, ",")
		switch i % 3 {
		case 0:
			x = "+" + x
		case 1:
			y = "0" + y
		default:
			x = strconv.FormatFloat(pts[i].X, 'e', -1, 64)
		}
		odd = append(odd, x+","+y)
	}
	var regs []geom.Region
	for _, pg := range datagen.Tessellation(6, 5, area, 4) {
		regs = append(regs, geom.RegionOf(pg))
	}
	load := func() *core.System {
		sys := core.New(core.Config{BlockSize: 1024, Workers: 4, Seed: 9})
		if _, err := sys.LoadPoints("pts", pts, sindex.STRPlus); err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadPointsHeap("heap", pts); err != nil {
			t.Fatal(err)
		}
		if err := sys.FS().WriteFile("odd", odd); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.LoadRegions("regs", regs, sindex.STR); err != nil {
			t.Fatal(err)
		}
		recs := make([]string, len(regs))
		for i, rg := range regs {
			recs[i] = geomio.EncodeRegion(rg)
		}
		if err := sys.FS().WriteFile("text-regs", recs); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// oracle is the definitional answer of a range job over file.
	oracle := func(sys *core.System, file string, q geom.Rect) (recs []string) {
		f, err := sys.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range ops.RangeCandidates(f.Splits(), q) {
			for _, b := range sp.Blocks {
				pts, err := b.Points()
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range pts {
					if q.ContainsPoint(p) {
						recs = append(recs, b.Record(i))
					}
				}
			}
		}
		return recs
	}
	check := func(how string, sys *core.System) {
		t.Helper()
		raw := false
		for _, file := range []string{"pts", "heap", "odd"} {
			for qi, q := range queries {
				got, rep, err := ops.RangeQueryPointsTo(sys, file, q, file+".out")
				if err != nil {
					t.Fatal(err)
				}
				out, err := sys.FS().ReadAll(rep.OutputFile)
				if err != nil {
					t.Fatal(err)
				}
				want := oracle(sys, file, q)
				if len(want) == 0 || !slices.Equal(out, want) {
					t.Fatalf("%s: range %d over %s writes %d records, want the %d it selected", how, qi, file, len(out), len(want))
				}
				if parsed, err := geomio.DecodePoints(want); err != nil || !slices.Equal(got, parsed) {
					t.Fatalf("%s: range %d over %s returns %d points, not its output parsed (%v)", how, qi, file, len(got), err)
				}
				for _, rec := range out {
					raw = raw || rec == "1.50,2"
				}
			}
		}
		if !raw {
			t.Fatalf("%s: no output kept the spelling 1.50,2", how)
		}
		for qi, q := range queries {
			if got, want := rangeSet(t, sys, "text-regs", q), rangeSet(t, sys, "regs", q); len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("%s: region range %d: %d regions over text, %d over the marked copy", how, qi, len(got), len(want))
			}
		}
	}
	check("in process", load())

	for _, replication := range []int{0, 2} {
		sys := load()
		reg := obs.NewRegistry()
		m, err := sys.Cluster().StartMaster(mapreduce.MasterOptions{HeartbeatEvery: 5 * time.Millisecond, Lease: time.Second, Replication: replication, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for _, pid := range []int{9521, 9522} {
			w, err := Start(Config{Master: m.Addr(), Dir: t.TempDir(), FakePID: pid})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Stop)
		}
		for deadline := time.Now().Add(5 * time.Second); m.LiveWorkers() < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("workers never registered")
			}
		}
		check("replication "+strconv.Itoa(replication), sys)
		m.Stop()
		if reg.Counter(mapreduce.MetricTasksDispatched) == 0 {
			t.Errorf("replication %d: no task reached a worker", replication)
		}
	}
}
