package obs

import (
	"fmt"
	"io"

	"dynaplat/internal/sim"
)

// Env is the run environment of one workload: every simulation kernel
// the workload builds comes from Env.Kernel, so two fields decide the
// observation plane of the whole run (DESIGN.md §7). A nil *Env is the plain run. A non-nil Env keeps every kernel it
// hands out, so it is not safe for concurrent use: give each
// concurrently running workload its own.
type Env struct {
	// Observe gives every kernel a full obs plane as its observer: the
	// plane's tracer receives the kernel's k.Trace lines, and every bus,
	// fault layer, middleware, platform node and orchestrator built on
	// the kernel records into it.
	Observe bool
	// TraceCap bounds the retained trace records per kernel; 0 means
	// unbounded.
	TraceCap int

	scopes []envScope
}

type envScope struct {
	name string
	k    *sim.Kernel
}

// Kernel returns a fresh kernel seeded with seed, recorded under scope
// in call order. An observing Env installs a new plane as the kernel's
// observer (the only SetObserver call outside tests), so every layer
// later constructed on the kernel records into it; Of returns it. A nil
// Env returns sim.NewKernel(seed).
func (e *Env) Kernel(scope string, seed uint64) *sim.Kernel {
	k := sim.NewKernel(seed)
	if e == nil {
		return k
	}
	if e.Observe {
		o := New(k)
		o.T.Cap = e.TraceCap
		k.SetObserver(o)
	}
	e.scopes = append(e.scopes, envScope{name: scope, k: k})
	return k
}

// Scopes returns one scope per kernel handed out, in call order. Trace
// is nil when the Env does not observe.
func (e *Env) Scopes() []Scope {
	out := make([]Scope, len(e.scopes))
	for i, sc := range e.scopes {
		out[i] = Scope{Name: sc.name, Trace: Of(sc.k).Tracer(), Kernel: sc.k}
	}
	return out
}

// WriteTrace writes every observed kernel's records as one Chrome
// trace_event document, one process per scope.
func (e *Env) WriteTrace(w io.Writer) error { return WriteChromeTrace(w, e.Scopes()) }

// SameTrace reports whether e and o have the same scope names in order,
// each scope's trace Same as its counterpart's. That is all WriteTrace
// reads, so it implies byte-identical documents without rendering them.
func (e *Env) SameTrace(o *Env) bool {
	if len(e.scopes) != len(o.scopes) {
		return false
	}
	for i, sc := range e.scopes {
		oc := o.scopes[i]
		if sc.name != oc.name || !Of(sc.k).Tracer().Same(Of(oc.k).Tracer()) {
			return false
		}
	}
	return true
}

// WriteMetrics snapshots every observed kernel (SnapshotKernel) and
// dumps its registry to w under a "# scope <name>" header, in scope
// order.
func (e *Env) WriteMetrics(w io.Writer) error {
	if !e.Observe {
		return nil
	}
	for _, sc := range e.scopes {
		o := Of(sc.k)
		o.SnapshotKernel(sc.k)
		if _, err := fmt.Fprintf(w, "# scope %s\n", sc.name); err != nil {
			return err
		}
		if err := o.M.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// Summary returns a deterministic one-line digest of the run: scope,
// retained-record and dropped-record counts.
func (e *Env) Summary() string {
	if !e.Observe || len(e.scopes) == 0 {
		return "(not instrumented)"
	}
	records, dropped := 0, int64(0)
	for _, sc := range e.scopes {
		t := Of(sc.k).T
		records += t.Len()
		dropped += t.Dropped
	}
	return fmt.Sprintf("%d scopes, %d trace records (%d dropped)",
		len(e.scopes), records, dropped)
}
