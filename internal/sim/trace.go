package sim

import "fmt"

// Observer is the kernel's observation slot. It receives every formatted
// kernel trace line: the virtual time it was emitted at, its category and
// its message. internal/obs implements it (*obs.Obs), and every layer
// built on an observed kernel finds its plane through Observer, so one
// SetObserver call observes a whole run; the kernel itself keeps no log.
type Observer interface {
	KernelTrace(at Time, category, message string)
}

// SetObserver installs o as k's observer; nil makes k unobserved. o must
// be set before the layers of the run are built on k, because they read
// it once, when they are constructed.
func (k *Kernel) SetObserver(o Observer) { k.tracer = o }

// Observer returns k's observer, or nil when k is not observed.
func (k *Kernel) Observer() Observer { return k.tracer }

// Tracing reports whether an observer is installed. Call sites on
// per-frame or per-call paths check it before Trace, so that boxing their
// arguments costs nothing when the run is not observed.
func (k *Kernel) Tracing() bool { return k.tracer != nil }

// Trace formats a trace line and hands it to the observer. Without one it
// does nothing; the formatting only runs when observed.
func (k *Kernel) Trace(category, format string, args ...any) {
	if k.tracer != nil {
		k.tracer.KernelTrace(k.now, category, fmt.Sprintf(format, args...))
	}
}
