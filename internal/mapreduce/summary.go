package mapreduce

import (
	"fmt"
	"io"
	"sort"
	"time"

	"spatialhadoop/internal/obs"
)

// WriteSummary renders a human-readable job summary: the per-phase time
// table (wall time, work sum, longest task), the top-N slowest tasks, the
// most skewed reduce partitions, the runtime gauges (filter prune ratio)
// and the per-phase histograms. It is what `shadoop -metrics` prints.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "job %q: %v total, %d/%d splits processed", r.Job, r.Total.Round(time.Microsecond), r.Splits, r.SplitsTotal)
	if r.Metrics != nil {
		if ratio, ok := r.Metrics.Gauges[GaugeFilterPruneRatio]; ok {
			fmt.Fprintf(w, " (filter pruned %.1f%%)", 100*ratio)
		}
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-8s  %12s  %12s  %12s  %6s\n", "phase", "wall", "work-sum", "max-task", "tasks")
	row := func(phase string, wall, sum, max time.Duration, tasks int) {
		fmt.Fprintf(w, "%-8s  %12s  %12s  %12s  %6d\n",
			phase, wall.Round(time.Microsecond), sum.Round(time.Microsecond),
			max.Round(time.Microsecond), tasks)
	}
	row("map", r.MapTime, r.MapWorkSum, r.MapTaskMax, r.MapTasks)
	row("shuffle", r.ShuffleTime, r.ShuffleTime, r.ShuffleTime, 1)
	row("reduce", r.ReduceTime, r.ReduceWorkSum, r.ReduceTaskMax, r.ReduceTasks)
	row("commit", r.CommitTime, r.CommitTime, r.CommitTime, 1)

	if r.Counters != nil {
		fmt.Fprintf(w, "shuffle: %d bytes in %d pairs; retries: %d; output: %d records\n",
			r.Counters[CounterShuffleBytes], r.Counters[CounterShufflePairs],
			r.Counters[CounterTaskRetries], r.Counters[CounterOutputRecords])
	}

	writeFaultTable(w, r)

	if r.Trace != nil {
		writeSlowestTasks(w, r.Trace, 5)
		writeSkewedPartitions(w, r.Trace, 5)
	}
	if r.Metrics != nil && len(r.Metrics.Histograms) > 0 {
		names := make([]string, 0, len(r.Metrics.Histograms))
		for n := range r.Metrics.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "histograms:")
		for _, n := range names {
			fmt.Fprintf(w, "  %-28s %s\n", n, r.Metrics.Histograms[n].String())
		}
	}
}

// faultCounters are the scheduler's fault-tolerance counters in summary
// display order, with their human labels.
var faultCounters = []struct {
	name  string
	label string
}{
	{CounterRetryMap, "map retries"},
	{CounterRetryReduce, "reduce retries"},
	{CounterRetryCommit, "commit retries"},
	{CounterStragglersInjected, "stragglers injected"},
	{CounterSpecLaunched, "speculative launched"},
	{CounterSpecWon, "speculative won"},
	{CounterSpecSuppressed, "duplicates suppressed"},
	{CounterDeadlineExceeded, "deadlines exceeded"},
	{CounterChecksumFailures, "checksum failures"},
	{CounterWorkerLost, "workers lost mid-task"},
	{CounterReissuedMaps, "map shards re-issued"},
}

// writeFaultTable prints the fault-tolerance event table. A fault-free
// run prints nothing: the table appears only when the scheduler retried,
// speculated, hit a deadline or saw a checksum mismatch.
func writeFaultTable(w io.Writer, r *Report) {
	if r.Counters == nil {
		return
	}
	any := false
	for _, fc := range faultCounters {
		if r.Counters[fc.name] > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	fmt.Fprintln(w, "fault events:")
	for _, fc := range faultCounters {
		if v := r.Counters[fc.name]; v > 0 {
			fmt.Fprintf(w, "  %-22s %6d\n", fc.label, v)
		}
	}
}

// writeSlowestTasks prints the top-n slowest successful task spans.
func writeSlowestTasks(w io.Writer, tr *obs.Trace, n int) {
	var tasks []*obs.Span
	for _, s := range tr.Spans() {
		if (s.Phase == obs.PhaseMap || s.Phase == obs.PhaseReduce) && s.Outcome == obs.OutcomeOK {
			tasks = append(tasks, s)
		}
	}
	if len(tasks) == 0 {
		return
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].DurUS > tasks[j].DurUS })
	if len(tasks) > n {
		tasks = tasks[:n]
	}
	fmt.Fprintf(w, "top %d slowest tasks:\n", len(tasks))
	for _, s := range tasks {
		part := s.Partition
		if part == "" {
			part = "-"
		}
		fmt.Fprintf(w, "  %-12s partition=%-6s %8dus  in=%-8d out=%-8d bytes=%d\n",
			s.Name, part, s.DurUS, s.RecordsIn, s.RecordsOut, s.Bytes)
	}
}

// writeSkewedPartitions prints the reduce partitions (or, for map-only
// jobs, the map tasks) with the highest record counts relative to the
// phase mean — the skew view the LPT simulation is sensitive to.
func writeSkewedPartitions(w io.Writer, tr *obs.Trace, n int) {
	phase := obs.PhaseReduce
	var spans []*obs.Span
	for _, s := range tr.Spans() {
		if s.Phase == phase && s.Outcome == obs.OutcomeOK {
			spans = append(spans, s)
		}
	}
	if len(spans) == 0 {
		phase = obs.PhaseMap
		for _, s := range tr.Spans() {
			if s.Phase == phase && s.Outcome == obs.OutcomeOK {
				spans = append(spans, s)
			}
		}
	}
	if len(spans) < 2 {
		return
	}
	var total int64
	for _, s := range spans {
		total += s.RecordsIn
	}
	mean := float64(total) / float64(len(spans))
	if mean <= 0 {
		return
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].RecordsIn > spans[j].RecordsIn })
	if len(spans) > n {
		spans = spans[:n]
	}
	fmt.Fprintf(w, "most skewed %s partitions (mean %.0f records):\n", phase, mean)
	for _, s := range spans {
		part := s.Partition
		if part == "" {
			part = fmt.Sprintf("#%d", s.Task)
		}
		fmt.Fprintf(w, "  %-12s partition=%-6s records=%-8d %.2fx mean\n",
			s.Name, part, s.RecordsIn, float64(s.RecordsIn)/mean)
	}
}
