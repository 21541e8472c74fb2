package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples: the smallest sample with at least q of the samples at or below
// it. sorted must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailBeyond is the number of samples strictly above the nearest-rank
// q-quantile's rank. A percentile is only worth reporting when this is at
// least minTail; a workload that cannot leave that many must shrink its
// operation, not drop the metric.
func tailBeyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance rule for this benchmark is written in. It needs two samples.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(i int) float64 {
		p := float64(i) * float64(n+1) / 4
		j := int(math.Floor(p))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := p - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// interval is a half-open [start, end) stretch of time in any one unit.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent, and overlapping or nested children
// are counted once.
func selfTime(parent interval, children []interval) int64 {
	var clipped []interval
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, hi int64
	hi = parent.start
	for _, c := range clipped {
		if c.start > hi {
			hi = c.start
		}
		if c.end > hi {
			covered += c.end - hi
			hi = c.end
		}
	}
	return parent.end - parent.start - covered
}
