package obs

import (
	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// Obs bundles one kernel's observability plane: a metrics registry and
// a span/event tracer. It is the kernel's sim.Observer: Env.Kernel
// installs it, and every layer constructed on that kernel finds it with
// Of and records into it. A nil *Obs is fully inert, so an unobserved
// layer keeps its hot path free of observability work beyond a nil
// check.
type Obs struct {
	M *Registry
	T *Trace

	tap *NetTap // shared by every network of the kernel, built on first use

	kernel Ref // "kernel", the track of every kernel line
	// lastCat is the category of the previous kernel line and catRef its
	// ID: a category is nearly always the same constant as the line
	// before, so this is usually a pointer compare.
	lastCat string
	catRef  Ref
}

// Of returns the obs plane observing k, or nil when k is not observed.
func Of(k *sim.Kernel) *Obs {
	o, _ := k.Observer().(*Obs)
	return o
}

// New returns an enabled observability plane for kernel k.
func New(k *sim.Kernel) *Obs {
	t := NewTrace(k)
	return &Obs{M: NewRegistry(), T: t, kernel: t.Resolve("kernel")}
}

// Metrics returns the registry, or nil. Safe on a nil receiver, and the
// nil result is itself safe to call instrument getters on (they return
// detached instruments).
func (o *Obs) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.M
}

// Tracer returns the span tracer, or nil. Safe on a nil receiver.
func (o *Obs) Tracer() *Trace {
	if o == nil {
		return nil
	}
	return o.T
}

// SnapshotKernel mirrors k's event-program statistics into gauges
// (kernel_fired, kernel_canceled, kernel_queue_live, kernel_queue_peak)
// labeled {layer: sim}. Call it just before dumping metrics; it reads
// Kernel.Stats() once.
//
// Only the subset of sim.KernelStats that follows from the event program
// alone is exported here, so experiment artifacts that include this
// snapshot do not move when the queue's internals change. Queue
// bookkeeping (pool occupancy, reuse, compactions) is never exported.
func (o *Obs) SnapshotKernel(k *sim.Kernel) {
	if o == nil || o.M == nil {
		return
	}
	st := k.Stats()
	l := Labels{Layer: "sim"}
	o.M.Gauge("kernel_fired", l).Set(int64(st.Fired))
	o.M.Gauge("kernel_canceled", l).Set(int64(st.Canceled))
	o.M.Gauge("kernel_queue_live", l).Set(int64(st.QueueLive))
	o.M.Gauge("kernel_queue_peak", l).Set(int64(st.PeakQueue))
}

// KernelTrace implements sim.Observer: every k.Trace line becomes an
// instant in o's span tracer (category preserved, track "kernel", the
// line interned as its name). This captures the k.Trace call sites
// across the layers — fault campaign records, SOA discovery, redundancy
// promotions, gateway routing — without touching those call sites.
func (o *Obs) KernelTrace(at sim.Time, category, message string) {
	if r := o.T.add(at, PhaseInstant); r != nil {
		r.cat, r.name, r.track = o.category(category), o.T.intern(message), o.kernel
	}
}

// KernelTraceLine implements sim.Observer: a typed k.TraceLine becomes
// the same instant KernelTrace records for its text, but it stores the
// line's operands, and the text is only formatted when rendered.
func (o *Obs) KernelTraceLine(at sim.Time, category string, l sim.TraceLine) {
	t := o.T
	if r := t.add(at, PhaseInstant); r != nil {
		r.cat, r.track = o.category(category), o.kernel
		r.form, r.line, r.i = formLine, l.Form, l.I
		for j, s := range l.S {
			r.s[j] = t.intern(s)
		}
	}
}

// category returns the ID of a kernel line's category.
func (o *Obs) category(c string) Ref {
	if c != o.lastCat {
		o.lastCat, o.catRef = c, o.T.intern(c)
	}
	return o.catRef
}

// Tap returns the frame tap every network of o's kernel shares
// (network.TapOf). One tap serves the fault layer and the medium it
// wraps, and every medium of the kernel.
func (o *Obs) Tap() network.Tap {
	if o.tap == nil {
		o.tap = newNetTap(o)
	}
	return o.tap
}
