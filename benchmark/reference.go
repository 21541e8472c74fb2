package main

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The benchmark runs on a few cores of a shared host whose speed is not its
// own: for minutes at a time everything — formatting floats, sorting, a
// loopback round trip, and this repository's code with them — runs a
// quarter to a third slower, then recovers. Over ten minutes of one
// unchanged serve-hot process the per-20-second median latency moved
// between 0.52 and 0.72 ms and a pure float-formatting loop moved with it,
// 3.6 to 5.0 ms. A longer window does not average that out (the slow spells
// outlast any window the time limit allows) and no statistic of the
// operations alone can tell a slow host from slow code.
//
// So every timed figure is taken against a reference: a fixed piece of
// work, owned by the benchmark and importing nothing of the repository,
// that runs between the slices of a measured window. How much longer than
// its nominal time the reference took next to a slice is the host's
// slowdown there, and the slice's wall time, CPU time and latencies are
// divided by it. What is reported is time on a host on which the reference
// takes its nominal time. A change to the repository's code moves the
// operations and not the reference, so it shows in full; a slow spell of
// the host moves both and cancels.
//
// The reference is computation with unpredictable branches and a working
// set of a few hundred kilobytes: formatting twenty thousand floats and
// sorting them. Measured beside serve-hot across fast and slow spells,
// this alone tracked the workload one for one (a fitted exponent of 1.0);
// a loopback round-trip loop, a large memory copy and a copy of the
// reference on the second core, each tried beside it, explained nothing
// more on any workload. It allocates nothing while it runs, so allocation
// per operation needs no correction.
type reference struct {
	floats  []float64
	scratch []float64
	text    []byte
}

const (
	refFloats = 20000
	// refNominalMS is what one run takes on this repository's build host in
	// its fast spells. It only fixes the scale the results are printed in.
	refNominalMS = 5.4
)

func newReference() *reference {
	r := &reference{floats: make([]float64, refFloats), scratch: make([]float64, refFloats)}
	rng := rand.New(rand.NewSource(1))
	for i := range r.floats {
		r.floats[i] = rng.Float64() * 1e6
	}
	r.run() // grows the text buffer
	return r
}

// run does the reference work once and returns the host's slowdown: how
// much longer than nominal it took.
func (r *reference) run() float64 {
	t := time.Now()
	text := r.text[:0]
	for _, f := range r.floats {
		text = strconv.AppendFloat(text, f, 'f', 1, 64)
	}
	r.text = text
	copy(r.scratch, r.floats)
	sort.Float64s(r.scratch)
	return float64(time.Since(t).Nanoseconds()) / 1e6 / refNominalMS
}

// refRunsPerSetup is how many reference runs bracket a set-up on each side.
const refRunsPerSetup = 3

// timeSetup times fn in reference time: its wall time divided by the mean
// slowdown of the reference runs just before and just after it. It starts
// from a collected heap, so that what the previous set-up left behind is
// not still resident when this one peaks.
func (r *reference) timeSetup(fn func() error) (seconds float64, err error) {
	runtime.GC()
	var slow []float64
	for i := 0; i < refRunsPerSetup; i++ {
		slow = append(slow, r.run())
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	wall := time.Since(t0)
	for i := 0; i < refRunsPerSetup; i++ {
		slow = append(slow, r.run())
	}
	return wall.Seconds() / mean(slow), nil
}
