package sched

import (
	"fmt"
	"sort"
	"strings"

	"dynaplat/internal/sim"
)

// Slot is one contiguous execution window in a time-triggered table.
// Start/End are offsets within the hyperperiod.
type Slot struct {
	Task  string
	Job   int // job index within the hyperperiod
	Start sim.Duration
	End   sim.Duration
}

// Len returns the slot's length.
func (s Slot) Len() sim.Duration { return s.End - s.Start }

// Table is a synthesized time-triggered schedule over one hyperperiod.
// The table repeats cyclically at runtime.
type Table struct {
	Hyperperiod sim.Duration
	Granularity sim.Duration
	// Slots are sorted by start and non-overlapping.
	Slots []Slot
	// SynthesisOps counts elementary synthesis operations; the backend-
	// versus-ECU experiment (E3) converts it to CPU time at a clock rate.
	SynthesisOps int64

	// byTask is a lazily built per-task slot index serving SlotsFor on
	// the platform dispatch hot path; normalize invalidates it.
	byTask map[string][]Slot
}

// DefaultGranularity is the slot quantum used when none is specified
// (ablation A1 varies this).
const DefaultGranularity = 250 * sim.Microsecond

// InfeasibleError reports which task could not meet its deadline.
type InfeasibleError struct {
	Task string
	Job  int
	At   sim.Duration
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("sched: infeasible: task %s job %d misses deadline at %v",
		e.Task, e.Job, e.At)
}

// MaxHyperperiod bounds synthesized tables to keep memory predictable.
const MaxHyperperiod = 10 * sim.Second

// Synthesize builds a time-triggered table for the task set using
// preemptive EDF placement at the given slot granularity. EDF is optimal
// on one processor, so if Synthesize fails no table at that granularity
// exists. This is the computation the paper proposes to run in the
// backend rather than on the ECU (Section 3.1 "CPU").
func Synthesize(tasks []Task, granularity sim.Duration) (*Table, error) {
	if granularity <= 0 {
		granularity = DefaultGranularity
	}
	if err := ValidateSet(tasks); err != nil {
		return nil, err
	}
	hyper, err := Hyperperiod(tasks, MaxHyperperiod)
	if err != nil {
		return nil, err
	}
	tbl := &Table{Hyperperiod: hyper, Granularity: granularity}
	free := newTimeline(hyper)
	if err := tbl.placeEDF(tasks, free, false); err != nil {
		return nil, err
	}
	tbl.normalize()
	return tbl, nil
}

// job is one release of a task during the hyperperiod.
type job struct {
	task      *Task
	index     int
	release   sim.Duration
	deadline  sim.Duration
	remaining sim.Duration
}

// placeEDF fills the free timeline with the tasks' jobs in EDF order.
// If locked is true the timeline already contains reserved regions that
// must not move (incremental synthesis).
func (t *Table) placeEDF(tasks []Task, free *timeline, locked bool) error {
	_ = locked
	var jobs []*job
	for i := range tasks {
		task := &tasks[i]
		for r := task.Offset; r < t.Hyperperiod; r += task.Period {
			jobs = append(jobs, &job{
				task:      task,
				index:     int((r - task.Offset) / task.Period),
				release:   r,
				deadline:  r + task.EffectiveDeadline(),
				remaining: task.WCET,
			})
		}
	}
	// EDF over the quantized timeline: repeatedly give the next free
	// quantum to the released job with the earliest deadline.
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].release != jobs[j].release {
			return jobs[i].release < jobs[j].release
		}
		return jobs[i].task.Name < jobs[j].task.Name
	})
	pending := jobs
	var active []*job
	g := t.Granularity
	for now := sim.Duration(0); now < t.Hyperperiod; now += g {
		t.SynthesisOps++
		for len(pending) > 0 && pending[0].release <= now {
			active = append(active, pending[0])
			pending = pending[1:]
		}
		if !free.isFree(now, now+g) {
			continue
		}
		// Fill the quantum: repeatedly give the earliest-deadline active
		// job the remaining quantum time, so short jobs don't waste the
		// rest of their quantum (essential for large task sets).
		offset := now
		quantumEnd := now + g
		if quantumEnd > t.Hyperperiod {
			quantumEnd = t.Hyperperiod
		}
		for offset < quantumEnd {
			var pick *job
			for _, j := range active {
				t.SynthesisOps++
				if j.remaining <= 0 {
					continue
				}
				if pick == nil || j.deadline < pick.deadline ||
					(j.deadline == pick.deadline && j.task.Name < pick.task.Name) {
					pick = j
				}
			}
			if pick == nil {
				break
			}
			run := quantumEnd - offset
			if pick.remaining < run {
				run = pick.remaining
			}
			pick.remaining -= run
			t.Slots = append(t.Slots, Slot{Task: pick.task.Name, Job: pick.index, Start: offset, End: offset + run})
			if pick.remaining == 0 && offset+run > pick.deadline {
				return &InfeasibleError{Task: pick.task.Name, Job: pick.index, At: offset + run}
			}
			offset += run
		}
	}
	for _, j := range jobs {
		if j.remaining > 0 {
			return &InfeasibleError{Task: j.task.Name, Job: j.index, At: t.Hyperperiod}
		}
	}
	return nil
}

// normalize sorts slots and merges adjacent slots of the same job.
func (t *Table) normalize() {
	sort.Slice(t.Slots, func(i, j int) bool { return t.Slots[i].Start < t.Slots[j].Start })
	merged := t.Slots[:0]
	for _, s := range t.Slots {
		if n := len(merged); n > 0 && merged[n-1].Task == s.Task &&
			merged[n-1].Job == s.Job && merged[n-1].End == s.Start {
			merged[n-1].End = s.End
			continue
		}
		merged = append(merged, s)
	}
	t.Slots = merged
	t.byTask = nil // invalidate the SlotsFor index
}

// TaskAt returns the task scheduled at hyperperiod-relative offset off,
// or "" for idle time.
func (t *Table) TaskAt(off sim.Duration) string {
	off %= t.Hyperperiod
	i := sort.Search(len(t.Slots), func(i int) bool { return t.Slots[i].End > off })
	if i < len(t.Slots) && t.Slots[i].Start <= off {
		return t.Slots[i].Task
	}
	return ""
}

// SlotsFor returns the slots belonging to the named task. The result is
// served from a lazily built per-task index (the platform dispatcher
// calls this once per job release, which made the previous full-scan-
// plus-allocate version a measurable hot spot); callers must not mutate
// the returned slice.
func (t *Table) SlotsFor(task string) []Slot {
	if t.byTask == nil {
		idx := make(map[string][]Slot, 8)
		for _, s := range t.Slots {
			idx[s.Task] = append(idx[s.Task], s)
		}
		t.byTask = idx
	}
	return t.byTask[task]
}

// Utilization returns the fraction of the hyperperiod that is scheduled.
func (t *Table) Utilization() float64 {
	var busy sim.Duration
	for _, s := range t.Slots {
		busy += s.Len()
	}
	return float64(busy) / float64(t.Hyperperiod)
}

// Verify re-checks the invariants of a synthesized table against its task
// set: slots sorted and disjoint, every job fully scheduled between
// release and deadline, and start-time jitter within each task's bound.
// A table is installed on the vehicle only after Verify (and simulation)
// pass — the paper's "test this schedule ... in the backend".
//
// The first violation is reported in a fixed order: overlaps, then task
// by task in the given order, job by job, each job's slots in table
// order with the release bound checked before the deadline bound, then
// the job's allocation, and the task's jitter after all its jobs.
func (t *Table) Verify(tasks []Task) error {
	for i := 1; i < len(t.Slots); i++ {
		if t.Slots[i].Start < t.Slots[i-1].End {
			return fmt.Errorf("sched: slots %d and %d overlap", i-1, i)
		}
	}
	idx := t.jobSlots(tasks)
	for i := range tasks {
		task := &tasks[i]
		sp := idx.span[task.Name]
		n := int((t.Hyperperiod - task.Offset + task.Period - 1) / task.Period)
		var lo, hi sim.Duration
		for j := 0; j < n; j++ {
			release := task.Offset + sim.Duration(j)*task.Period
			deadline := release + task.EffectiveDeadline()
			var got sim.Duration
			first := sim.Duration(-1)
			for _, si := range idx.job(sp, j) {
				s := &t.Slots[si]
				if s.Start < release {
					return fmt.Errorf("sched: %s job %d starts %v before release %v",
						task.Name, j, s.Start, release)
				}
				if s.End > deadline {
					return fmt.Errorf("sched: %s job %d ends %v after deadline %v",
						task.Name, j, s.End, deadline)
				}
				if first < 0 {
					first = s.Start
				}
				got += s.Len()
			}
			if got < task.WCET {
				return fmt.Errorf("sched: %s job %d allocated %v < WCET %v",
					task.Name, j, got, task.WCET)
			}
			if start := first - release; j == 0 {
				lo, hi = start, start
			} else {
				lo, hi = min(lo, start), max(hi, start)
			}
		}
		if task.Jitter > 0 && hi-lo > task.Jitter {
			return fmt.Errorf("sched: %s start jitter %v exceeds bound %v",
				task.Name, hi-lo, task.Jitter)
		}
	}
	return nil
}

// slotIndex lists, for every (task name, job) pair that Verify walks, the
// indices of that job's slots in table order. It is built by one counting
// pass over the slots. Each task name owns a run of keys, one per job up
// to the largest job count of any task of that name; slots naming no
// task, or a job outside that run, get no key, as Verify never asks for
// them.
type slotIndex struct {
	span  map[string]keySpan
	start []int32 // key k's slots are slots[start[k]:start[k+1]]
	slots []int32
}

// keySpan is a task name's run of keys: jobs 0..jobs-1 map to base+job.
type keySpan struct{ base, jobs int }

// jobSlots builds the slotIndex of t for the task set.
func (t *Table) jobSlots(tasks []Task) slotIndex {
	x := slotIndex{span: make(map[string]keySpan, len(tasks))}
	for i := range tasks {
		n := 0
		if p := tasks[i].Period; p != 0 {
			n = int((t.Hyperperiod - tasks[i].Offset + p - 1) / p)
		}
		sp, ok := x.span[tasks[i].Name]
		if !ok {
			sp.base = -1
		}
		sp.jobs = max(sp.jobs, n)
		x.span[tasks[i].Name] = sp
	}
	keys := 0
	for i := range tasks {
		if sp := x.span[tasks[i].Name]; sp.base < 0 {
			sp.base = keys
			keys += sp.jobs
			x.span[tasks[i].Name] = sp
		}
	}
	x.start = make([]int32, keys+1)
	key := make([]int32, len(t.Slots))
	for i := range t.Slots {
		s := &t.Slots[i]
		key[i] = -1
		if sp, ok := x.span[s.Task]; ok && s.Job >= 0 && s.Job < sp.jobs {
			key[i] = int32(sp.base + s.Job)
			x.start[key[i]+1]++
		}
	}
	for k := 1; k <= keys; k++ {
		x.start[k] += x.start[k-1]
	}
	x.slots = make([]int32, x.start[keys])
	next := append([]int32(nil), x.start[:keys]...)
	for i, k := range key {
		if k >= 0 {
			x.slots[next[k]] = int32(i)
			next[k]++
		}
	}
	return x
}

// job returns the indices of the slots of job j of the task name whose
// span is sp, in table order. j must be below sp.jobs, which holds for
// every job Verify walks.
func (x slotIndex) job(sp keySpan, j int) []int32 {
	k := sp.base + j
	return x.slots[x.start[k]:x.start[k+1]]
}

// String renders the table compactly for diagnostics.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hyperperiod=%v slots=%d util=%.2f\n", t.Hyperperiod, len(t.Slots), t.Utilization())
	for _, s := range t.Slots {
		fmt.Fprintf(&sb, "  [%8v..%8v) %s#%d\n", s.Start, s.End, s.Task, s.Job)
	}
	return sb.String()
}

// timeline tracks reserved intervals over [0, hyper).
type timeline struct {
	hyper    sim.Duration
	reserved []Slot // sorted, disjoint
}

func newTimeline(hyper sim.Duration) *timeline { return &timeline{hyper: hyper} }

// reserve marks [start, end) as occupied. It inserts after every
// reservation that starts at or before s, so the list stays sorted and
// reservations with equal starts keep their insertion order.
func (tl *timeline) reserve(s Slot) {
	i := sort.Search(len(tl.reserved), func(i int) bool { return tl.reserved[i].Start > s.Start })
	tl.reserved = append(tl.reserved, Slot{})
	copy(tl.reserved[i+1:], tl.reserved[i:])
	tl.reserved[i] = s
}

// isFree reports whether [start, end) overlaps no reservation.
func (tl *timeline) isFree(start, end sim.Duration) bool {
	i := sort.Search(len(tl.reserved), func(i int) bool { return tl.reserved[i].End > start })
	return i >= len(tl.reserved) || tl.reserved[i].Start >= end
}
