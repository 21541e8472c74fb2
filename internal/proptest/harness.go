package proptest

import (
	"os"
	"path/filepath"

	"spatialhadoop/internal/sindex"
)

// Seed layout: a case seed packs its entire identity — base round, op,
// technique, shape — into one int64, so a single -proptest.seed=N flag
// regenerates the exact failing case: dataset, workload and all.
//
//	seed = base*1_000_000 + opIdx*10_000 + techIdx*100 + shapeIdx

// CaseSeed packs (base, op, tech, shape) into one replayable seed.
func CaseSeed(base int64, opIdx, techIdx, shapeIdx int) int64 {
	return base*1_000_000 + int64(opIdx)*10_000 + int64(techIdx)*100 + int64(shapeIdx)
}

// CaseFromSeed decodes a seed back into its fully generated Case. It is
// total: any int64 yields a valid case (indices are reduced mod the
// catalogue sizes), which lets fuzzers drive it with arbitrary integers.
func CaseFromSeed(seed int64) Case {
	if seed < 0 {
		seed = -seed
	}
	shapeIdx := int(seed%100) % len(Shapes)
	techIdx := int(seed/100%100) % len(Techniques)
	opIdx := int(seed/10_000%100) % len(CheckOrder)
	return GenCase(CheckOrder[opIdx], Techniques[techIdx], Shapes[shapeIdx], seed)
}

// GenCase builds the fully generated Case for one (op, tech, shape, seed)
// combination. Dataset sizes are kept small enough that the brute oracles
// are instant but large enough that the 1 KiB block size forces a genuine
// multi-partition index.
func GenCase(op string, tech sindex.Technique, shape Shape, seed int64) Case {
	c := Case{Op: op, Tech: tech, Shape: shape, Seed: seed}
	const n = 96
	switch op {
	case "range", "knn", "ann", "plot", "skyline", "hull", "closest-pair", "farthest-pair", "serve-planner", "serve-sharded", "serve-replace":
		c.Pts = GenPoints(shape, n, seed)
	}
	switch op {
	case "range":
		c.Queries = GenQueryRects(seed)
	case "serve-planner", "serve-sharded", "serve-replace":
		c.Queries = GenQueryRects(seed)
		c.KNNs = GenKNNQueries(len(c.Pts), seed)
	case "range-regions":
		c.Left = GenRegions(40, seed)
		c.Queries = GenQueryRects(seed)
	case "knn":
		c.KNNs = GenKNNQueries(len(c.Pts), seed)
	case "join":
		c.Left = GenRegions(28, seed)
		c.Right = GenRegions(28, seed+1)
	case "plot":
		c.Extents = GenPlotExtents(seed)
		c.Width, c.Height = 32, 32
	case "union":
		c.Left = GenRegions(24, seed)
	}
	return c
}

// Failure is one failing property with its minimized counterexample.
type Failure struct {
	Case   Case   // the original failing case
	Msg    string // the original failure message
	Shrunk Case   // the ddmin-minimized case (still failing)
}

// runCheck executes one check with remote-engine cleanup: any runtime a
// Case.System() call started is torn down before returning, so shrink
// probes and matrix sweeps never accumulate live masters.
func runCheck(check Check, c Case) string {
	defer CloseEngines()
	return check(c)
}

// RunCase executes one case; on failure it shrinks the counterexample and
// returns the report, otherwise nil.
func RunCase(c Case) *Failure {
	check := Checks[c.Op]
	run := func(c Case) string { return runCheck(check, c) }
	msg := run(c)
	if msg == "" {
		return nil
	}
	return &Failure{Case: c, Msg: msg, Shrunk: Shrink(c, run)}
}

// Report renders the failure for test logs: what broke, the replayable
// seed one-liner, and a paste-ready repro test with the shrunk literals.
// When PROPTEST_ARTIFACT_DIR is set the report is also written there (the
// CI soak job uploads that directory when it fails).
func (f *Failure) Report() string {
	shrunkMsg := runCheck(Checks[f.Shrunk.Op], f.Shrunk)
	report := sprintf(
		"property %s × %v × %v failed: %s\n\nshrunk to %d points / %d+%d regions: %s\n\nreplay:\n\t%s\n\nrepro test:\n%s",
		f.Case.Op, f.Case.Tech, f.Case.Shape, f.Msg,
		len(f.Shrunk.Pts), len(f.Shrunk.Left), len(f.Shrunk.Right), shrunkMsg,
		ReplayLine(f.Case), ReproSnippet(f.Shrunk, shrunkMsg))
	if dir := os.Getenv("PROPTEST_ARTIFACT_DIR"); dir != "" {
		name := sprintf("proptest-%s-%s-seed%d.txt", identifier(f.Case.Op), identifier(f.Case.Tech.String()), f.Case.Seed)
		if err := os.MkdirAll(dir, 0o755); err == nil {
			_ = os.WriteFile(filepath.Join(dir, name), []byte(report), 0o644)
		}
	}
	return report
}

// RunSoakRound runs the complete op × technique × shape cross product for
// one base seed (one soak round).
func RunSoakRound(base int64) []*Failure {
	var fails []*Failure
	for oi := range CheckOrder {
		for ti := range Techniques {
			for si := range Shapes {
				if f := RunCase(CaseFromSeed(CaseSeed(base, oi, ti, si))); f != nil {
					fails = append(fails, f)
				}
			}
		}
	}
	return fails
}
