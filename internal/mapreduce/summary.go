package mapreduce

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"spatialhadoop/internal/obs"
)

// WriteSummary renders a human-readable job summary: the per-phase time
// table (wall time, work sum, longest task), the top-N slowest tasks, the
// most skewed reduce partitions, the runtime gauges (filter prune ratio)
// and the per-phase histograms. Every per-task view reads the report's
// rows. It is what `shadoop -metrics` prints.
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
	sum, longest := r.work(obs.PhaseMap)
	row("map", r.MapTime, sum, longest, r.MapTasks)
	row("shuffle", r.ShuffleTime, r.ShuffleTime, r.ShuffleTime, 1)
	if r.ReduceTasks > 0 {
		sum, longest = r.work(obs.PhaseReduce)
		row("reduce", r.ReduceTime, sum, longest, r.ReduceTasks)
	}
	row("commit", r.CommitTime, r.CommitTime, r.CommitTime, 1)

	if r.Counters != nil {
		fmt.Fprintf(w, "shuffle: %d bytes in %d pairs; retries: %d; output: %d records\n",
			r.Counters[CounterShuffleBytes], r.Counters[CounterShufflePairs],
			r.Counters[CounterTaskRetries], r.Counters[CounterOutputRecords])
	}

	writeFaultTable(w, r)

	writeSlowestTasks(w, r.Tasks, 5)
	writeSkewedPartitions(w, r.Tasks, 5)
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

// writeSlowestTasks prints the top-n slowest tasks.
func writeSlowestTasks(w io.Writer, rows []TaskRow, n int) {
	if len(rows) == 0 {
		return
	}
	tasks := slices.Clone(rows)
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Dur > tasks[j].Dur })
	if len(tasks) > n {
		tasks = tasks[:n]
	}
	fmt.Fprintf(w, "top %d slowest tasks:\n", len(tasks))
	for _, t := range tasks {
		part := t.Partition
		if part == "" {
			part = "-"
		}
		fmt.Fprintf(w, "  %-12s partition=%-6s %8dus  in=%-8d out=%-8d bytes=%d\n",
			fmt.Sprintf("%s-%d", t.Phase, t.Task), part, t.Dur.Microseconds(), t.RecordsIn, t.RecordsOut, t.Bytes)
	}
}

// writeSkewedPartitions prints the reduce partitions (or, for map-only
// jobs, the map tasks) with the highest record counts relative to the
// phase mean — the skew view the LPT simulation is sensitive to.
func writeSkewedPartitions(w io.Writer, rows []TaskRow, n int) {
	byPhase := map[string][]TaskRow{}
	for _, t := range rows {
		byPhase[t.Phase] = append(byPhase[t.Phase], t)
	}
	phase := obs.PhaseReduce
	if len(byPhase[phase]) == 0 {
		phase = obs.PhaseMap
	}
	tasks := byPhase[phase]
	if len(tasks) < 2 {
		return
	}
	var total int64
	for _, t := range tasks {
		total += t.RecordsIn
	}
	mean := float64(total) / float64(len(tasks))
	if mean <= 0 {
		return
	}
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].RecordsIn > tasks[j].RecordsIn })
	if len(tasks) > n {
		tasks = tasks[:n]
	}
	fmt.Fprintf(w, "most skewed %s partitions (mean %.0f records):\n", phase, mean)
	for _, t := range tasks {
		part := t.Partition
		if part == "" {
			part = fmt.Sprintf("#%d", t.Task)
		}
		fmt.Fprintf(w, "  %-12s partition=%-6s records=%-8d %.2fx mean\n",
			fmt.Sprintf("%s-%d", t.Phase, t.Task), part, t.RecordsIn, float64(t.RecordsIn)/mean)
	}
}
