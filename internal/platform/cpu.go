package platform

import (
	"dynaplat/internal/sim"
)

// This file implements the node's two CPU models.
//
// ModeIsolated executes deterministic jobs exactly in their synthesized
// table slots and confines non-deterministic work to the gaps — the
// platform layer's freedom-of-interference guarantee. Slot lookups are
// analytic: a job's completion time is computed at release from the
// table, so schedule changes take effect for subsequent releases while
// in-flight activations complete under the table they started with.
//
// ModeShared is the baseline: one non-preemptive queue where DA releases
// have priority but can be blocked behind an already-running NDA job.

// pendingCompletion is a pooled record for one in-flight deterministic
// activation, fired by completeJob.
type pendingCompletion struct {
	n        *Node
	a        *AppInstance
	job      int64
	release  sim.Time
	started  sim.Time
	finished sim.Time
	deadline sim.Time
}

// scheduleCompletion arms a pooled completion record at finished.
// Completion events are never canceled: crash/hang outcomes are decided
// inside complete() against current node state.
func (n *Node) scheduleCompletion(a *AppInstance, job int64, release, started, finished, deadline sim.Time) {
	c := n.comps.Get()
	c.n, c.a, c.job = n, a, job
	c.release, c.started, c.finished, c.deadline = release, started, finished, deadline
	n.k.AtCall(finished, completeJob, c)
}

// completeJob fires a pending completion. It copies the record out and
// recycles it before completing, because complete may dispatch further
// jobs that reuse it.
func completeJob(arg any) {
	c := arg.(*pendingCompletion)
	n, a, job := c.n, c.a, c.job
	release, started, finished, deadline := c.release, c.started, c.finished, c.deadline
	n.comps.Put(c)
	a.complete(job, release, started, finished, deadline)
}

// runDA dispatches one deterministic activation.
func (n *Node) runDA(a *AppInstance, job int64, exec sim.Duration, release, deadline sim.Time) {
	switch n.mode {
	case ModeIsolated:
		n.runDAIsolated(a, job, exec, release, deadline)
	default:
		j := n.jobs.Get()
		j.n, j.exec, j.a, j.job, j.release, j.deadline = n, exec, a, job, release, deadline
		n.sharedDA.Push(j)
		n.serveShared()
	}
}

// runNDA dispatches non-deterministic work of the given duration.
func (n *Node) runNDA(a *AppInstance, exec sim.Duration, done func()) {
	switch n.mode {
	case ModeIsolated:
		n.runNDAIsolated(a, exec, done)
	default:
		j := n.jobs.Get()
		j.n, j.exec, j.done = n, exec, done
		n.sharedNDA.Push(j)
		n.serveShared()
	}
}

// --- Isolated mode -------------------------------------------------------

func (n *Node) runDAIsolated(a *AppInstance, job int64, exec sim.Duration, release, deadline sim.Time) {
	tbl := n.mgr.Table()
	if tbl == nil {
		// No deterministic task admitted — cannot happen for installed
		// DAs, but guard anyway.
		at := n.k.Now().Add(exec)
		n.scheduleCompletion(a, job, release, at, at, deadline)
		return
	}
	h := tbl.Hyperperiod
	off := release.Sub(n.epoch)
	cycle := off / h
	cycleStart := n.epoch.Add(cycle * h)
	jobInH := int((release.Sub(cycleStart)) / a.Spec.Period)

	var started, finished sim.Time
	remaining := exec
	for _, s := range tbl.SlotsFor(a.Spec.Name) {
		if s.Job != jobInH {
			continue
		}
		if started == 0 {
			started = cycleStart.Add(s.Start)
		}
		if remaining <= s.Len() {
			finished = cycleStart.Add(s.Start + remaining)
			remaining = 0
			break
		}
		remaining -= s.Len()
		finished = cycleStart.Add(s.End)
	}
	if remaining > 0 || started == 0 {
		// The table has no (or insufficient) slots for this job — it was
		// synthesized before this release pattern (e.g. mid-transition).
		// Fall back to completing at the deadline boundary.
		started = release
		finished = release.Add(exec)
	}
	n.scheduleCompletion(a, job, release, started, finished, deadline)
}

// gap is one idle interval of the schedule table.
type gap struct{ start, end sim.Duration }

// freeIntervals returns the idle gaps of the current table within one
// hyperperiod, memoized per table (tables are immutable once installed,
// and schedule changes install a new *sched.Table).
func (n *Node) freeIntervals() []gap {
	tbl := n.mgr.Table()
	if tbl == nil {
		return nil
	}
	if tbl == n.gapsFor {
		return n.gapsCache
	}
	var out []gap
	cursor := sim.Duration(0)
	for _, s := range tbl.Slots {
		if s.Start > cursor {
			out = append(out, gap{cursor, s.Start})
		}
		if s.End > cursor {
			cursor = s.End
		}
	}
	if cursor < tbl.Hyperperiod {
		out = append(out, gap{cursor, tbl.Hyperperiod})
	}
	n.gapsFor, n.gapsCache = tbl, out
	return out
}

func (n *Node) runNDAIsolated(a *AppInstance, exec sim.Duration, done func()) {
	start := n.k.Now()
	if c := n.ndaCursor; c > start {
		start = c
	}
	tbl := n.mgr.Table()
	if tbl == nil {
		// No deterministic load: CPU is all gap.
		finish := start.Add(exec)
		n.ndaCursor = finish
		n.k.At(finish, done)
		return
	}
	free := n.freeIntervals()
	var freePerHyper sim.Duration
	for _, f := range free {
		freePerHyper += f.end - f.start
	}
	if freePerHyper == 0 {
		// Fully loaded table: the job starves. Record and drop.
		n.diag.RecordFault(Fault{
			App: a.Spec.Name, Kind: FaultStarvation, At: n.k.Now(),
			Detail: "no idle time in schedule table",
		})
		return
	}
	h := tbl.Hyperperiod
	// Walk gaps from `start` until exec is consumed.
	t := start
	remaining := exec
	for remaining > 0 {
		off := t.Sub(n.epoch)
		if off < 0 {
			// Before the schedule epoch everything is free.
			pre := sim.Duration(-off)
			if remaining <= pre {
				t = t.Add(remaining)
				remaining = 0
				break
			}
			remaining -= pre
			t = n.epoch
			continue
		}
		inH := off % h
		base := t.Add(-inH)
		advanced := false
		for _, f := range free {
			if f.end <= inH {
				continue
			}
			gs := f.start
			if gs < inH {
				gs = inH
			}
			avail := f.end - gs
			if remaining <= avail {
				t = base.Add(gs + remaining)
				remaining = 0
			} else {
				remaining -= avail
				t = base.Add(f.end)
			}
			advanced = true
			if remaining == 0 {
				break
			}
		}
		if remaining > 0 {
			// Next hyperperiod.
			t = base.Add(h)
			_ = advanced
		}
	}
	n.ndaCursor = t
	n.k.At(t, done)
}

// --- Shared mode ----------------------------------------------------------

// The shared CPU serves queued jobs non-preemptively in (class, arrival)
// order: every waiting DA job before any NDA job, each class first come
// first served. With two classes that order is simply "head of the DA
// FIFO, else head of the NDA FIFO", so the queue is kept as two
// network.FIFOs and never sorted. A FIFO clears each slot it pops, so a
// long run does not retain finished jobs.

// queuedJob is one pooled job record waiting for or holding node n's
// shared CPU. A DA job carries its activation (a non-nil); an NDA job
// carries done.
type queuedJob struct {
	n                 *Node
	exec              sim.Duration
	a                 *AppInstance
	job               int64
	release, deadline sim.Time
	done              func()
	started, finished sim.Time
}

// serveShared starts the next queued job if the CPU is idle.
func (n *Node) serveShared() {
	if n.k.Now() < n.sharedBusyUntil {
		return
	}
	var j *queuedJob
	switch {
	case n.sharedDA.Len() > 0:
		j = n.sharedDA.Pop()
	case n.sharedNDA.Len() > 0:
		j = n.sharedNDA.Pop()
	default:
		return
	}
	j.started = n.k.Now()
	j.finished = j.started.Add(j.exec)
	n.sharedBusyUntil = j.finished
	n.k.AtCall(j.finished, sharedDone, j)
}

// sharedDone completes the job that held the shared CPU and serves the
// next one. It copies the record out and recycles it before completing,
// as completeJob does, because completing may queue further jobs that
// reuse it.
func sharedDone(arg any) {
	j := arg.(*queuedJob)
	n, a, job, done := j.n, j.a, j.job, j.done
	release, started, finished, deadline := j.release, j.started, j.finished, j.deadline
	n.jobs.Put(j)
	if a != nil {
		a.complete(job, release, started, finished, deadline)
	} else {
		done()
	}
	n.serveShared()
}
