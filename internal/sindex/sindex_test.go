package sindex

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"spatialhadoop/internal/datagen"
	"spatialhadoop/internal/geom"
)

var allTechniques = []Technique{Grid, STR, STRPlus, QuadTree, KDTree, ZCurve, Hilbert}

func TestTable1(t *testing.T) {
	// Paper Table 1: disjointness per technique.
	wantDisjoint := map[Technique]bool{
		Grid: true, STR: false, STRPlus: true,
		QuadTree: true, KDTree: true, ZCurve: false, Hilbert: false,
	}
	for tech, want := range wantDisjoint {
		if got := tech.Disjoint(); got != want {
			t.Errorf("%v disjoint = %v, want %v", tech, got, want)
		}
	}
	if Table1[Grid].HandlesSkew {
		t.Error("uniform grid does not handle skew")
	}
	for _, tech := range []Technique{STR, STRPlus, QuadTree, KDTree, ZCurve, Hilbert} {
		if !Table1[tech].HandlesSkew {
			t.Errorf("%v should handle skew", tech)
		}
	}
}

// TestParseTechniqueRoundTrip: ParseTechnique(t.String()) is the identity
// for every technique in Table1, and unknown names produce a descriptive
// error naming the offender.
func TestParseTechniqueRoundTrip(t *testing.T) {
	if len(Table1) != len(allTechniques) {
		t.Fatalf("Table1 has %d techniques, test covers %d", len(Table1), len(allTechniques))
	}
	for tech, info := range Table1 {
		tech, info := tech, info
		t.Run(info.Name, func(t *testing.T) {
			if got := tech.String(); got != info.Name {
				t.Errorf("String() = %q, want %q", got, info.Name)
			}
			got, err := ParseTechnique(tech.String())
			if err != nil {
				t.Fatalf("ParseTechnique(%q): %v", tech.String(), err)
			}
			if got != tech {
				t.Errorf("round trip: got %v, want %v", got, tech)
			}
		})
	}
	for _, name := range []string{"", "nope", "Grid", "STR", "str ", "quad-tree", "hilbert curve"} {
		_, err := ParseTechnique(name)
		if err == nil {
			t.Errorf("ParseTechnique(%q): expected error", name)
			continue
		}
		if !strings.Contains(err.Error(), "unknown partitioning technique") ||
			!strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("ParseTechnique(%q): error %q not descriptive", name, err)
		}
	}
}

// TestAssignmentTotal checks that every point is assigned to exactly one
// cell (points are never replicated) and that disjoint techniques assign by
// containment.
func TestAssignmentTotal(t *testing.T) {
	space := geom.NewRect(0, 0, 1000, 1000)
	for _, tech := range allTechniques {
		for _, dist := range []datagen.Distribution{datagen.Uniform, datagen.Gaussian, datagen.Clustered} {
			sample := datagen.Points(dist, 2000, space, 42)
			gi := Build(tech, sample, space.Buffer(1), 16)
			if len(gi.Cells) == 0 {
				t.Fatalf("%v/%v: no cells", tech, dist)
			}
			data := datagen.Points(dist, 3000, space, 99)
			counts := make([]int, len(gi.Cells))
			for _, p := range data {
				c := gi.AssignPoint(p)
				if c < 0 || c >= len(gi.Cells) {
					t.Fatalf("%v/%v: bad cell %d", tech, dist, c)
				}
				counts[c]++
				if gi.Disjoint() && !gi.Cells[c].Boundary.ContainsPoint(p) {
					t.Fatalf("%v/%v: point %v assigned to non-containing cell %v",
						tech, dist, p, gi.Cells[c].Boundary)
				}
			}
			total := 0
			for _, c := range counts {
				total += c
			}
			if total != len(data) {
				t.Fatalf("%v/%v: assigned %d of %d", tech, dist, total, len(data))
			}
		}
	}
}

// TestDisjointTiling checks that disjoint techniques tile the space: cell
// interiors are pairwise disjoint and random points are covered.
func TestDisjointTiling(t *testing.T) {
	space := geom.NewRect(0, 0, 100, 100)
	rng := rand.New(rand.NewSource(5))
	for _, tech := range []Technique{Grid, STRPlus, QuadTree, KDTree} {
		sample := datagen.Points(datagen.Clustered, 1500, space, 7)
		gi := Build(tech, sample, space, 12)
		for i := range gi.Cells {
			for j := i + 1; j < len(gi.Cells); j++ {
				inter := gi.Cells[i].Boundary.Intersect(gi.Cells[j].Boundary)
				if !inter.IsEmpty() && inter.Area() > 1e-9 {
					t.Fatalf("%v: cells %d and %d overlap by %g", tech, i, j, inter.Area())
				}
			}
		}
		for k := 0; k < 500; k++ {
			p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
			found := false
			for i := range gi.Cells {
				if gi.Cells[i].Boundary.ContainsPoint(p) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%v: point %v not covered by any cell", tech, p)
			}
		}
	}
}

// TestReplication checks that disjoint techniques replicate rectangles to
// every overlapping cell while overlapping techniques assign exactly one.
func TestReplication(t *testing.T) {
	space := geom.NewRect(0, 0, 100, 100)
	sample := datagen.Points(datagen.Uniform, 2000, space, 1)
	for _, tech := range allTechniques {
		gi := Build(tech, sample, space, 9)
		big := geom.NewRect(10, 10, 90, 90) // spans many cells
		cells := gi.AssignRect(big)
		if gi.Disjoint() {
			if len(cells) < 2 {
				t.Errorf("%v: big rect should replicate, got %d cells", tech, len(cells))
			}
			for _, c := range cells {
				if !gi.Cells[c].Boundary.Intersects(big) {
					t.Errorf("%v: replicated to non-overlapping cell", tech)
				}
			}
		} else if len(cells) != 1 {
			t.Errorf("%v: overlapping technique assigned %d cells, want 1", tech, len(cells))
		}
	}
}

// TestSkewBalance verifies skew-handling claims of Table 1: on clustered
// data, adaptive techniques produce far better balanced partitions than the
// uniform grid.
func TestSkewBalance(t *testing.T) {
	space := geom.NewRect(0, 0, 1000, 1000)
	data := datagen.Points(datagen.Gaussian, 20000, space, 3)
	imbalance := func(tech Technique) float64 {
		gi := Build(tech, data[:5000], space, 16)
		counts := make([]int, len(gi.Cells))
		for _, p := range data {
			counts[gi.AssignPoint(p)]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / (float64(len(data)) / float64(len(counts)))
	}
	gridImb := imbalance(Grid)
	strImb := imbalance(STRPlus)
	if strImb >= gridImb {
		t.Errorf("STR+ imbalance %.2f should beat grid %.2f on Gaussian data", strImb, gridImb)
	}
}

func TestCurveValues(t *testing.T) {
	if zInterleave(0, 0) != 0 {
		t.Error("z(0,0) != 0")
	}
	if zInterleave(1, 0) != 1 || zInterleave(0, 1) != 2 || zInterleave(1, 1) != 3 {
		t.Error("z first quad wrong")
	}
	// Hilbert: all cells of a 4x4 grid get distinct values in [0,16).
	seen := map[uint64]bool{}
	for x := uint32(0); x < 4; x++ {
		for y := uint32(0); y < 4; y++ {
			v := hilbertD2XY(4, x, y)
			if v >= 16 || seen[v] {
				t.Fatalf("hilbert(%d,%d) = %d invalid or duplicate", x, y, v)
			}
			seen[v] = true
		}
	}
}
