// Package fault is the fault-injection and fault-tolerance policy layer
// of the runtime. It provides a deterministic, seeded fault injector (a
// Plan describes per-phase failure, straggler and corruption rates; the
// Injector decides the fate of every task attempt from a hash of the seed
// and the attempt's coordinates, never from shared RNG state, so decisions
// do not depend on goroutine scheduling), a RetryPolicy (attempt budget,
// capped exponential backoff with seeded jitter, per-task deadline,
// speculative-execution thresholds) and a transient/permanent error
// classification used by the MapReduce scheduler to decide whether a
// failed attempt is worth retrying.
//
// The central property is determinism: the same Plan (same seed, same
// rates) makes the same decision for the same (phase, task, attempt)
// coordinate every run, so a chaos run can be replayed and its output
// compared byte-for-byte against a fault-free run.
package fault

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Phase names used as injection coordinates. They match the span phases
// of the obs package, but are re-declared here so fault has no
// dependencies and lower layers can import it freely.
const (
	PhaseMap    = "map"
	PhaseReduce = "reduce"
	PhaseCommit = "commit"
)

// Plan is a seeded fault plan: the rates at which the injector makes task
// attempts fail, straggle, or observe corrupted blocks. The zero Plan
// injects nothing.
type Plan struct {
	// Seed drives every injection decision. Two injectors with equal
	// plans make identical decisions.
	Seed int64 `json:"seed"`
	// MapFailRate is the probability that a map attempt fails with a
	// transient (retryable) error.
	MapFailRate float64 `json:"map_fail_rate,omitempty"`
	// ReduceFailRate is the probability that a reduce or commit attempt
	// fails with a transient error.
	ReduceFailRate float64 `json:"reduce_fail_rate,omitempty"`
	// PermanentFailRate is the probability that an attempt fails with a
	// permanent (non-retryable) error, failing the job.
	PermanentFailRate float64 `json:"permanent_fail_rate,omitempty"`
	// StragglerRate is the probability that an attempt straggles: it
	// still succeeds, but only after an injected delay, making it a
	// candidate for speculative re-execution.
	StragglerRate float64 `json:"straggler_rate,omitempty"`
	// StragglerSlowdown scales the injected straggler delay; the
	// scheduler multiplies it by its current straggler threshold, so a
	// slowdown of s makes the attempt roughly s times slower than the
	// point at which speculation kicks in. Values <= 1 are treated as 2.
	StragglerSlowdown float64 `json:"straggler_slowdown,omitempty"`
	// CorruptBlockRate is the probability that a map attempt's block
	// read returns corrupted bytes (surfaced as a checksum mismatch,
	// which is retryable: a re-read models fetching a healthy replica).
	CorruptBlockRate float64 `json:"corrupt_block_rate,omitempty"`
	// WorkerKillRate is the probability that handing an attempt to a
	// remote worker SIGKILLs a live worker process at that (phase, task,
	// attempt) decision point — the real-process chaos mode. It only takes
	// effect on a master runtime with a kill function installed; the
	// in-process scheduler ignores it. The kill draw uses a salted phase
	// coordinate so it is independent of the failure/straggler draw for
	// the same attempt.
	WorkerKillRate float64 `json:"worker_kill_rate,omitempty"`
	// WorkerKillPhase restricts kills to dispatches of one phase ("map"
	// or "reduce"; empty means any) — how the chaos matrix aims a kill at
	// "during map" versus "during reduce".
	WorkerKillPhase string `json:"worker_kill_phase,omitempty"`
	// WorkerKillHolder redirects a reduce-dispatch kill from the assignee
	// to a live worker holding one of its input shards, modelling death
	// during the shuffle fetch: the reducer survives but its source dies
	// under it, losing the map task's intermediate output.
	WorkerKillHolder bool `json:"worker_kill_holder,omitempty"`
	// WorkerKillReplicaHolder redirects a map-dispatch kill to a live
	// worker holding a replica of the task's split (often the assignee
	// itself, since dispatch prefers holders), modelling loss of the
	// local input copy: the re-issued map must fall back to peer or
	// master reads and the data plane must re-replicate.
	WorkerKillReplicaHolder bool `json:"worker_kill_replica_holder,omitempty"`
	// KillBudget caps the number of workers the plan may kill (0 = no
	// cap). Chaos rows typically set 1: kill exactly one real process at
	// the first seeded decision point reached.
	KillBudget int `json:"kill_budget,omitempty"`

	// FailEveryKth is the counter-based mode: every k-th map attempt
	// (counted across the injector's lifetime) fails once with a
	// transient error. It composes with the rate-based fields above.
	FailEveryKth int `json:"fail_every_kth,omitempty"`
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.MapFailRate > 0 || p.ReduceFailRate > 0 || p.PermanentFailRate > 0 ||
		p.StragglerRate > 0 || p.CorruptBlockRate > 0 || p.FailEveryKth > 0 ||
		p.WorkerKillRate > 0
}

// Kind classifies an injection decision.
type Kind int

const (
	// KindNone lets the attempt run unharmed.
	KindNone Kind = iota
	// KindTransient fails the attempt with a retryable error.
	KindTransient
	// KindPermanent fails the attempt with a non-retryable error.
	KindPermanent
	// KindCorrupt makes the attempt's block read surface a checksum
	// mismatch (retryable; only injected into the map phase).
	KindCorrupt
	// KindStraggle delays the attempt, then lets it succeed.
	KindStraggle
)

// String names the kind for event logs.
func (k Kind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindPermanent:
		return "permanent"
	case KindCorrupt:
		return "corrupt"
	case KindStraggle:
		return "straggle"
	default:
		return "none"
	}
}

// Decision is the injector's verdict for one attempt.
type Decision struct {
	Kind Kind
	// Slowdown is the straggler delay multiplier (KindStraggle only).
	Slowdown float64
}

// Event records one non-trivial injection decision or runtime fault, for
// the fault-event JSONL log exported on chaos failures.
type Event struct {
	Phase   string `json:"phase"`
	Task    int    `json:"task"`
	Attempt int    `json:"attempt"`
	Kind    string `json:"kind"`
	// Worker identifies the worker involved in runtime fault events
	// (worker-lost, worker-kill, reissue); 0 for injector decisions.
	Worker int64 `json:"worker,omitempty"`
}

// Injector makes seeded injection decisions for task attempts. It is safe
// for concurrent use; its decisions depend only on the plan and the
// attempt coordinates, never on invocation order (the legacy every-k-th
// counter mode is the sole, documented exception).
type Injector struct {
	plan Plan

	mu     sync.Mutex
	kth    int64 // legacy mode attempt counter
	kills  int   // workers killed so far, against KillBudget
	events []Event
}

// NewInjector creates an injector for the plan. A nil injector (or one
// with a zero plan) injects nothing.
func NewInjector(p Plan) *Injector { return &Injector{plan: p} }

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// hash64 mixes the seed and attempt coordinates with FNV-1a, then
// finalizes with a splitmix64 round so consecutive task ids land far
// apart in the output space.
func hash64(seed int64, phase string, task, attempt int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(seed))
	for i := 0; i < len(phase); i++ {
		h ^= uint64(phase[i])
		h *= prime64
	}
	mix(uint64(task))
	mix(uint64(attempt))
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Uniform returns the deterministic uniform [0,1) draw for an attempt
// coordinate under the given seed. Exposed so the retry policy's backoff
// jitter shares the same deterministic source.
func Uniform(seed int64, phase string, task, attempt int) float64 {
	return float64(hash64(seed, phase, task, attempt)>>11) / float64(1<<53)
}

// Decide returns the fate of one attempt. Non-none decisions are recorded
// in the injector's event log. task is the task ordinal within the phase;
// attempt numbers retries from 0 (speculative attempts use a disjoint
// attempt range so they draw independent fates).
func (in *Injector) Decide(phase string, task, attempt int) Decision {
	if in == nil {
		return Decision{}
	}
	d := Decision{}
	if in.plan.FailEveryKth > 0 && phase == PhaseMap {
		in.mu.Lock()
		in.kth++
		n := in.kth
		in.mu.Unlock()
		if n%int64(in.plan.FailEveryKth) == 0 {
			d = Decision{Kind: KindTransient}
		}
	}
	if d.Kind == KindNone && in.plan.rateSum(phase) > 0 {
		u := Uniform(in.plan.Seed, phase, task, attempt)
		failRate := in.plan.MapFailRate
		corruptRate := in.plan.CorruptBlockRate
		if phase != PhaseMap {
			failRate = in.plan.ReduceFailRate
			corruptRate = 0 // block reads happen in map tasks only
		}
		switch {
		case u < failRate:
			d = Decision{Kind: KindTransient}
		case u < failRate+in.plan.PermanentFailRate:
			d = Decision{Kind: KindPermanent}
		case u < failRate+in.plan.PermanentFailRate+corruptRate:
			d = Decision{Kind: KindCorrupt}
		case u < failRate+in.plan.PermanentFailRate+corruptRate+in.plan.StragglerRate:
			slow := in.plan.StragglerSlowdown
			if slow <= 1 {
				slow = 2
			}
			d = Decision{Kind: KindStraggle, Slowdown: slow}
		}
	}
	if d.Kind != KindNone {
		in.mu.Lock()
		in.events = append(in.events, Event{Phase: phase, Task: task, Attempt: attempt, Kind: d.Kind.String()})
		in.mu.Unlock()
	}
	return d
}

// DecideKill reports whether handing this attempt to a remote worker
// should SIGKILL that worker — the real-process chaos mode. The draw uses
// a salted phase coordinate ("kill."+phase) so it is independent of the
// failure/straggler draw Decide makes for the same attempt, and it honors
// the plan's KillBudget: once the budget is spent, no further kills fire.
// The caller records the actual kill (with the victim's identity) in its
// own event log; DecideKill only accounts the budget.
func (in *Injector) DecideKill(phase string, task, attempt int) bool {
	if in == nil || in.plan.WorkerKillRate <= 0 {
		return false
	}
	if in.plan.WorkerKillPhase != "" && phase != in.plan.WorkerKillPhase {
		return false
	}
	if Uniform(in.plan.Seed, "kill."+phase, task, attempt) >= in.plan.WorkerKillRate {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.KillBudget > 0 && in.kills >= in.plan.KillBudget {
		return false
	}
	in.kills++
	return true
}

// rateSum returns the total injection probability mass for a phase.
func (p Plan) rateSum(phase string) float64 {
	s := p.PermanentFailRate + p.StragglerRate
	if phase == PhaseMap {
		return s + p.MapFailRate + p.CorruptBlockRate
	}
	return s + p.ReduceFailRate
}

// Events returns a copy of the recorded injection events.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// WriteEventsJSONL writes the recorded injection events as one JSON
// object per line — the fault-event trace uploaded by CI on chaos
// failures.
func (in *Injector) WriteEventsJSONL(w io.Writer) error {
	return writeJSONL(w, in.Events())
}

// Log is a concurrency-safe fault-event log for runtime faults the
// injector never sees: worker registrations, lease expiries, real-process
// kills, shard-loss re-issues. The master runtime keeps one per job run
// and exports it alongside the injector's decision log.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// Append records one event.
func (l *Log) Append(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// WriteJSONL writes the recorded events as one JSON object per line.
func (l *Log) WriteJSONL(w io.Writer) error {
	return writeJSONL(w, l.Events())
}

func writeJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
