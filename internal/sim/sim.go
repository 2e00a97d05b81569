// Package sim provides a deterministic discrete-event simulation kernel.
//
// All dynaplat subsystems execute on virtual time managed by a Kernel.
// Virtual time is completely decoupled from the wall clock: the Go garbage
// collector and goroutine scheduler can delay wall-clock progress but can
// never perturb virtual-time ordering. Event ordering is a total order over
// (time, priority, sequence), so two runs with the same seed and the same
// event program are bit-identical.
//
// The kernel's dispatch loop is the hot path of the whole repository
// (every bus simulator, scheduler and SOA paradigm runs on it), so the
// event queue is a hand-specialized 4-ary heap with a free-list event
// pool and lazy removal of canceled events; see heap.go for the
// internals and DESIGN.md §"simulation substrate" for the rationale.
package sim

import (
	"fmt"
	"strconv"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package but in virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// String formats a duration with an adaptive unit.
func (d Duration) String() string {
	var buf [24]byte // the longest form, "-9223372036854775808ns", fits
	return string(d.Append(buf[:0]))
}

// Append appends d as String formats it: in the largest of s, ms and us
// that divides it evenly, else in ns.
func (d Duration) Append(b []byte) []byte {
	switch {
	case d == 0:
		return append(b, "0s"...)
	case d%Second == 0:
		return append(strconv.AppendInt(b, int64(d/Second), 10), 's')
	case d%Millisecond == 0:
		return append(strconv.AppendInt(b, int64(d/Millisecond), 10), "ms"...)
	case d%Microsecond == 0:
		return append(strconv.AppendInt(b, int64(d/Microsecond), 10), "us"...)
	default:
		return append(strconv.AppendInt(b, int64(d), 10), "ns"...)
	}
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Priority orders events that fire at the same instant. Lower runs first.
type Priority int

// Well-known priorities. Most events use PriorityNormal; schedulers use
// PriorityClock so that clock-driven dispatch precedes same-instant work.
const (
	PriorityClock  Priority = -100
	PriorityNormal Priority = 0
	PriorityLate   Priority = 100
)

// Handler is the callback invoked when an event fires.
type Handler func()

// event is one scheduled handler. Events are pooled: after firing or
// cancellation the slot is recycled, and gen is bumped so stale
// EventRefs can be detected. An event carries either fn (Handler) or
// fn1+arg (the allocation-free AtCall form); fire dispatches whichever
// is set.
type event struct {
	at       Time
	prio     Priority
	seq      uint64
	gen      uint64
	fn       Handler
	fn1      func(any)
	arg      any
	tk       *Ticker // periodic events: fire re-arms inline and calls tk.fn
	k        *Kernel
	index    int32 // heap index ≥ 0, -1 when not queued
	canceled bool
}

// EventRef identifies a scheduled event and allows cancellation. The
// zero EventRef is valid and refers to no event. Refs are generation-
// checked: once the underlying slot fires, is canceled, or is recycled
// for a new event, old refs become inert.
type EventRef struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Canceling an already-fired,
// already-canceled, or recycled event is a no-op. Cancel reports whether
// the event was still pending.
func (r EventRef) Cancel() bool {
	ev := r.ev
	if ev == nil || ev.gen != r.gen || ev.canceled || ev.index == -1 {
		return false
	}
	ev.canceled = true
	k := ev.k
	k.statCanceled++
	k.live--
	k.dead++
	k.maybeCompact()
	return true
}

// Pending reports whether the event has neither fired nor been canceled.
func (r EventRef) Pending() bool {
	return r.ev != nil && r.ev.gen == r.gen && !r.ev.canceled && r.ev.index != -1
}

// Kernel is a discrete-event simulation executive.
// The zero value is not usable; create kernels with NewKernel.
//
// A Kernel is single-threaded: it may be driven from one goroutine at a
// time. Run many kernels in parallel (one per goroutine) for fan-out
// workloads such as the experiment harness.
type Kernel struct {
	now     Time
	queue   []*event // 4-ary heap ordered by (at, prio, seq)
	free    []*event // recycled event slots
	dead    int      // canceled events still in the heap
	live    int      // live events in the heap (O(1) QueueLen)
	seq     uint64
	running bool
	stopped bool
	rng     RNG
	tracer  Observer

	statCanceled    uint64
	statReused      uint64
	statCompactions uint64
	statPeak        int

	// EventCount is the total number of events executed so far.
	EventCount uint64

	// Inline backing for the first few queue and pool entries, so a
	// fresh kernel running a short event chain never grows either slice.
	queue0 [4]*event
	free0  [4]*event

	// Inline backing for the first event slots, so a fresh kernel's
	// short chain never allocates events at all.
	ev0     [2]event
	ev0Used int8
}

// NewKernel returns a kernel at time zero with a deterministic RNG
// initialized from seed. The kernel itself is the only allocation.
func NewKernel(seed uint64) *Kernel {
	k := &Kernel{}
	k.rng.Seed(seed)
	k.queue = k.queue0[:0]
	k.free = k.free0[:0]
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return &k.rng }

// At schedules fn to run at time at with normal priority.
// Scheduling in the past panics: it indicates a causality bug.
func (k *Kernel) At(at Time, fn Handler) EventRef {
	return k.AtPriority(at, PriorityNormal, fn)
}

// AtPriority schedules fn at the given time and same-instant priority.
func (k *Kernel) AtPriority(at Time, prio Priority, fn Handler) EventRef {
	if fn == nil {
		panic("sim: nil event handler")
	}
	ev := k.newEvent(at, prio)
	ev.fn = fn
	k.schedule(ev)
	return EventRef{ev, ev.gen}
}

// newEvent allocates and stamps an event slot for time at.
func (k *Kernel) newEvent(at Time, prio Priority) *event {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	ev := k.alloc()
	ev.at = at
	ev.prio = prio
	ev.seq = k.seq
	k.seq++
	return ev
}

// schedule pushes a stamped event onto the heap and maintains the live
// count and its high-water mark.
func (k *Kernel) schedule(ev *event) {
	k.push(ev)
	k.live++
	if k.live > k.statPeak {
		k.statPeak = k.live
	}
}

// After schedules fn to run d after the current time.
// Negative delays panic.
func (k *Kernel) After(d Duration, fn Handler) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now.Add(d), fn)
}

// AfterPriority schedules fn d after now with the given priority.
func (k *Kernel) AfterPriority(d Duration, prio Priority, fn Handler) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.AtPriority(k.now.Add(d), prio, fn)
}

// AfterCall schedules fn(arg) to run d after the current time with
// normal priority. Unlike After it takes a plain function plus its
// argument — typically a pre-bound method value and a pooled record —
// so hot paths schedule without building a closure per event, and it
// deliberately returns no EventRef: the event is fire-and-forget and
// can never be canceled, which is what delivery-style callers want.
func (k *Kernel) AfterCall(d Duration, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.AtCall(k.now.Add(d), fn, arg)
}

// AtCall schedules fn(arg) at time at with normal priority. See
// AfterCall for the contract.
func (k *Kernel) AtCall(at Time, fn func(any), arg any) {
	k.atCall(at, fn, arg)
}

// AfterCallRef is AfterCall that also returns the event's handle: a
// closure-free timer that its owner can still cancel (a pooled record's
// timeout, with a package-level handler). It takes its sequence number
// exactly as After does, so swapping an After closure for it leaves the
// event order unchanged.
func (k *Kernel) AfterCallRef(d Duration, fn func(any), arg any) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	ev := k.atCall(k.now.Add(d), fn, arg)
	return EventRef{ev, ev.gen}
}

// atCall schedules fn(arg) at time at with normal priority and returns
// the queued slot.
func (k *Kernel) atCall(at Time, fn func(any), arg any) *event {
	if fn == nil {
		panic("sim: nil event handler")
	}
	ev := k.newEvent(at, PriorityNormal)
	ev.fn1 = fn
	ev.arg = arg
	k.schedule(ev)
	return ev
}

// Every schedules fn at start and then every period thereafter, until the
// returned ticker is stopped. period must be positive.
func (k *Kernel) Every(start Time, period Duration, fn Handler) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	if fn == nil {
		panic("sim: nil event handler")
	}
	t := &Ticker{k: k, period: period, fn: fn}
	ev := k.newEvent(start, PriorityNormal)
	ev.tk = t
	k.schedule(ev)
	t.ref = EventRef{ev, ev.gen}
	return t
}

// Ticker repeatedly fires a handler at a fixed period. Ticker events
// are re-armed inline by fire: the same event slot goes straight back
// into the queue (fresh seq, same generation) before the handler runs —
// no pool round-trip, no allocation, no per-tick closure dispatch.
type Ticker struct {
	k       *Kernel
	period  Duration
	fn      Handler
	ref     EventRef
	stopped bool
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ref.Cancel()
}

// Stop halts the run loop after the current event completes. Stop is
// only meaningful while the kernel is running (i.e. from inside an event
// handler); calling it while the kernel is idle is a documented no-op,
// so a stray pre-Run Stop cannot silently suppress a later Run.
func (k *Kernel) Stop() {
	if k.running {
		k.stopped = true
	}
}

// Step executes the single next live event, advancing virtual time to it.
// Canceled events encountered at the queue head are dropped and recycled
// without executing. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	h := k.peekLive()
	if h == nil {
		return false
	}
	k.fire(h)
	return true
}

// fire pops h (the live heap head peekLive returned) and dispatches it.
func (k *Kernel) fire(h *event) {
	k.popHead()
	k.now = h.at
	k.EventCount++
	k.live--
	if tk := h.tk; tk != nil {
		// Ticker fast path: re-arm the just-fired slot inline — before
		// the handler, so the handler observes a pending ref and can
		// Stop() it — then dispatch the user handler directly. The slot
		// keeps its generation across re-arms: the only ref to a ticker
		// event is the ticker's own (Every hands out *Ticker, never an
		// EventRef), so tk.ref set at Every time stays valid for the
		// ticker's whole life and needs no per-fire rewrite.
		if !tk.stopped {
			h.at = k.now.Add(tk.period)
			h.seq = k.seq
			k.seq++
			k.schedule(h)
			tk.fn()
		} else {
			h.gen++
			h.fn = nil
			h.tk = nil
			h.canceled = false
			k.free = append(k.free, h)
		}
		return
	}
	// The slot leaves the queue for good: stale any refs (so a
	// cancel-after-fire is inert) and recycle it before the handler
	// runs — a handler that immediately schedules (the chain pattern)
	// then reuses this very slot instead of growing the pool.
	h.gen++
	fn, fn1, arg := h.fn, h.fn1, h.arg
	h.fn = nil
	h.fn1 = nil
	h.arg = nil
	h.canceled = false
	k.free = append(k.free, h)
	if fn1 != nil {
		fn1(arg)
	} else {
		fn()
	}
}

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.runGuard()
	defer func() { k.running = false }()
	for !k.stopped {
		if !k.Step() {
			break
		}
	}
	k.stopped = false
}

// RunUntil executes events with time ≤ end, then sets the clock to end.
// Events scheduled after end remain queued. Canceled events at the head
// of the queue are discarded and never act as a time barrier.
func (k *Kernel) RunUntil(end Time) {
	k.runGuard()
	defer func() { k.running = false }()
	for !k.stopped {
		h := k.peekLive()
		if h == nil || h.at > end {
			break
		}
		k.fire(h)
	}
	k.stopped = false
	if k.now < end {
		k.now = end
	}
}

// RunFor runs for d of virtual time from the current instant.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

func (k *Kernel) runGuard() {
	if k.running {
		panic("sim: Kernel.Run called re-entrantly")
	}
	k.running = true
}

// QueueLen returns the number of live (non-canceled) scheduled events.
// Canceled events awaiting lazy removal are not counted. Intended for
// tests and diagnostics.
func (k *Kernel) QueueLen() int { return k.live }

// KernelStats is a snapshot of kernel counters for observability.
//
// Fired, Canceled, QueueLive and PeakQueue follow from the event program
// alone. The remaining fields are queue bookkeeping whose values depend
// on lazy-recycle timing; observed experiment artifacts include only the
// first set (see obs.SnapshotKernel).
type KernelStats struct {
	Fired       uint64 // events executed
	Canceled    uint64 // cancellations accepted
	Reused      uint64 // schedules served from the event pool
	PoolFree    int    // event slots currently parked in the pool
	QueueLive   int    // live events queued now
	QueueDead   int    // canceled events awaiting lazy removal
	PeakQueue   int    // high-water mark of live queued events
	Compactions uint64 // bulk canceled-event sweeps
}

// Stats returns a snapshot of the kernel's internal counters.
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		Fired:       k.EventCount,
		Canceled:    k.statCanceled,
		Reused:      k.statReused,
		PoolFree:    len(k.free),
		QueueLive:   k.live,
		QueueDead:   k.dead,
		PeakQueue:   k.statPeak,
		Compactions: k.statCompactions,
	}
}
