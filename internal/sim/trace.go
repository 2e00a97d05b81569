package sim

import (
	"fmt"
	"strconv"
)

// Observer is the kernel's observation slot. It receives every kernel
// trace line: the virtual time it was emitted at, its category, and the
// line itself, formatted (KernelTrace) or in typed form
// (KernelTraceLine). internal/obs implements it (*obs.Obs), and every
// layer built on an observed kernel finds its plane through Observer, so
// one SetObserver call observes a whole run; the kernel itself keeps no
// log.
type Observer interface {
	KernelTrace(at Time, category, message string)
	KernelTraceLine(at Time, category string, l TraceLine)
}

// LineForm names the layout of a typed trace line.
type LineForm uint8

const (
	// LineCANTx is a CAN frame winning arbitration, Trace's
	// "%s: id=%#x %dB from %s tx=%v" with S[0] the bus, I[0] the frame
	// ID, I[1] its payload bytes, S[1] the sender and I[2] the frame
	// time (a Duration).
	LineCANTx LineForm = iota + 1
	// LineSOAOffer is an interface offer, Trace's
	// "%s offers %s v%d on %q" with S[0] the app, S[1] the interface,
	// I[0] the version and S[2] the network.
	LineSOAOffer
)

// TraceLine is a kernel trace line in typed form: a layout and its
// string and integer operands. The hottest trace sites hand one to
// Kernel.TraceLine instead of formatting with Trace, so an observer
// stores strings and integers and formats the line only if it renders
// it, to the text Trace would have given.
type TraceLine struct {
	Form LineForm
	S    [3]string
	I    [3]int64
}

// AppendText appends the line as Trace would have formatted it.
func (l *TraceLine) AppendText(b []byte) []byte {
	switch l.Form {
	case LineCANTx:
		b = append(b, l.S[0]...)
		b = append(b, ": id=0x"...)
		b = strconv.AppendUint(b, uint64(l.I[0]), 16)
		b = append(b, ' ')
		b = strconv.AppendInt(b, l.I[1], 10)
		b = append(b, "B from "...)
		b = append(b, l.S[1]...)
		b = append(b, " tx="...)
		return Duration(l.I[2]).Append(b)
	case LineSOAOffer:
		b = append(b, l.S[0]...)
		b = append(b, " offers "...)
		b = append(b, l.S[1]...)
		b = append(b, " v"...)
		b = strconv.AppendInt(b, l.I[0], 10)
		b = append(b, " on "...)
		return strconv.AppendQuote(b, l.S[2])
	}
	return b
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

// TraceLine hands a typed trace line to the observer. Without one it
// does nothing.
func (k *Kernel) TraceLine(category string, l TraceLine) {
	if k.tracer != nil {
		k.tracer.KernelTraceLine(k.now, category, l)
	}
}
