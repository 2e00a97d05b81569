package sched

import (
	"fmt"

	"dynaplat/internal/sim"
)

// Manager implements the schedule-management framework of the paper's
// reference [21] (Zhang et al., RTCSA'16): when the application set
// changes at runtime, a new time-triggered schedule is synthesized — in
// the backend, not on the ECU — preferring *incremental* synthesis that
// leaves existing slots untouched to minimize disturbance to running
// applications.
type Manager struct {
	granularity sim.Duration
	tasks       []Task
	table       *Table
}

// NewManager creates a schedule manager with the given slot granularity
// (0 selects DefaultGranularity).
func NewManager(granularity sim.Duration) *Manager {
	if granularity <= 0 {
		granularity = DefaultGranularity
	}
	return &Manager{granularity: granularity}
}

// Table returns the current schedule table (nil before the first Install).
func (m *Manager) Table() *Table { return m.table }

// Tasks returns a copy of the currently admitted task set.
func (m *Manager) Tasks() []Task { return append([]Task(nil), m.tasks...) }

// AdmissionResult describes the outcome of admitting a task.
type AdmissionResult struct {
	Admitted bool
	// Incremental reports whether the existing slots were preserved.
	Incremental bool
	// MovedSlots counts pre-existing slots whose position changed
	// (the "disturbance" metric of [21]; 0 for incremental updates).
	MovedSlots int
	// Ops is the synthesis cost in elementary operations.
	Ops int64
	// Reason is set when admission fails.
	Reason string
}

// Admit runs admission control for a new task (Section 5.3's online
// resource management): first a fast utilization pre-check, then an
// incremental synthesis attempt that locks all existing slots, and
// finally a full resynthesis. The previous schedule is kept on failure.
func (m *Manager) Admit(task Task) (AdmissionResult, error) {
	if err := task.Validate(); err != nil {
		return AdmissionResult{Reason: err.Error()}, err
	}
	for i := range m.tasks {
		if m.tasks[i].Name == task.Name {
			err := fmt.Errorf("sched: task %s already admitted", task.Name)
			return AdmissionResult{Reason: err.Error()}, err
		}
	}
	candidate := append(m.Tasks(), task)

	// Fast reject on the necessary condition U ≤ 1. (The density test
	// EDFSchedulable is only sufficient for constrained deadlines and
	// would falsely reject feasible sets, so it is not used here.)
	if TotalUtilization(candidate) > 1.0 {
		return AdmissionResult{Reason: "utilization exceeds 1.0"},
			fmt.Errorf("sched: admission rejected: utilization exceeds 1.0")
	}

	// Incremental attempt: lock every existing slot, place only the new
	// task's jobs into the free gaps.
	if m.table != nil {
		if tbl, ok := m.incremental(task); ok {
			m.tasks = candidate
			m.table = tbl
			return AdmissionResult{Admitted: true, Incremental: true, Ops: tbl.SynthesisOps}, nil
		}
	}

	// Full resynthesis.
	tbl, err := Synthesize(candidate, m.granularity)
	if err != nil {
		return AdmissionResult{Reason: err.Error()},
			fmt.Errorf("sched: admission rejected: %w", err)
	}
	moved := 0
	if m.table != nil {
		moved = disturbance(m.table, tbl)
	}
	m.tasks = candidate
	m.table = tbl
	return AdmissionResult{Admitted: true, MovedSlots: moved, Ops: tbl.SynthesisOps}, nil
}

// Remove drops a task and compacts the schedule by resynthesis. Removal
// cannot fail feasibility.
func (m *Manager) Remove(name string) error {
	idx := -1
	for i := range m.tasks {
		if m.tasks[i].Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("sched: task %s not admitted", name)
	}
	remaining := append(append([]Task(nil), m.tasks[:idx]...), m.tasks[idx+1:]...)
	if len(remaining) == 0 {
		m.tasks, m.table = nil, nil
		return nil
	}
	tbl, err := Synthesize(remaining, m.granularity)
	if err != nil {
		return fmt.Errorf("sched: resynthesis after removal failed: %w", err)
	}
	m.tasks, m.table = remaining, tbl
	return nil
}

// incremental tries to place only the new task into the existing table's
// free time. The resulting table must share a hyperperiod with the old
// one; placement fails when the new period does not divide evenly into a
// bounded hyperperiod or when the gaps do not suffice.
func (m *Manager) incremental(task Task) (*Table, bool) {
	candidate := append(m.Tasks(), task)
	hyper, err := Hyperperiod(candidate, MaxHyperperiod)
	if err != nil {
		return nil, false
	}
	tbl := &Table{Hyperperiod: hyper, Granularity: m.granularity}
	free := newTimeline(hyper)
	// Replicate old slots across the (possibly longer) new hyperperiod.
	reps := int(hyper / m.table.Hyperperiod)
	jobsPerOldHyper := map[string]int{}
	for i := range m.tasks {
		jobsPerOldHyper[m.tasks[i].Name] = int(m.table.Hyperperiod / m.tasks[i].Period)
	}
	for rep := 0; rep < reps; rep++ {
		base := sim.Duration(rep) * m.table.Hyperperiod
		for _, s := range m.table.Slots {
			ns := Slot{Task: s.Task, Job: s.Job + rep*jobsPerOldHyper[s.Task], Start: base + s.Start, End: base + s.End}
			free.reserve(ns)
			tbl.Slots = append(tbl.Slots, ns)
		}
	}
	if err := tbl.placeEDF([]Task{task}, free, true); err != nil {
		return nil, false
	}
	tbl.normalize()
	if err := tbl.Verify(candidate); err != nil {
		return nil, false
	}
	return tbl, true
}

// disturbance counts slots of the old table that are not present at the
// same position in the new one, normalizing for hyperperiod growth.
func disturbance(old, new_ *Table) int {
	type at struct {
		task string
		off  sim.Duration
	}
	pos := make(map[at]bool, len(new_.Slots))
	for _, s := range new_.Slots {
		pos[at{s.Task, s.Start % old.Hyperperiod}] = true
	}
	moved := 0
	for _, s := range old.Slots {
		if !pos[at{s.Task, s.Start}] {
			moved++
		}
	}
	return moved
}

// SynthesisTime converts a synthesis operation count into CPU time at the
// given clock rate, for comparing on-ECU against backend synthesis (E3).
// The constant models ~25 clock cycles per elementary synthesis step.
func SynthesisTime(ops int64, cpuMHz int) sim.Duration {
	if cpuMHz <= 0 {
		cpuMHz = 1
	}
	const cyclesPerOp = 25
	return sim.Duration(ops * cyclesPerOp * 1000 / int64(cpuMHz))
}
