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
	ref    *Env // the Env a checking Env re-records (Recheck)
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
		if e.ref != nil {
			o.T.ref = e.ref.traceAt(len(e.scopes))
		}
		k.SetObserver(o)
	}
	e.scopes = append(e.scopes, envScope{name: scope, k: k})
	return k
}

// Recheck returns an Env that runs e's workload again to check it
// against e's recording. It hands out kernels observed as e's are, but
// each kernel's trace is a checking trace: it compares every record with
// the one e's kernel of the same scope index recorded at that index, as
// the record comes, and keeps none. SameTrace between e and the recheck
// means what it means between two recorded Envs, and metrics are kept in
// full. A checking Env cannot be rendered: WriteTrace fails. e must be a
// recorded Env whose run is over.
func (e *Env) Recheck() *Env {
	if e.ref != nil {
		panic("obs: Recheck of a checking Env")
	}
	return &Env{Observe: e.Observe, TraceCap: e.TraceCap, ref: e}
}

// traceAt returns the trace of e's i'th scope, or an empty trace that
// no record matches when e has no such scope or it is unobserved.
func (e *Env) traceAt(i int) *Trace {
	if i < len(e.scopes) {
		if t := Of(e.scopes[i].k).Tracer(); t != nil {
			return t
		}
	}
	return &Trace{}
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

// SameMetrics reports whether e and o would write the same metrics
// dumps: the same scope names in order, each scope's registry Same as
// its counterpart's after both kernels are snapshotted as WriteMetrics
// does. It renders nothing.
func (e *Env) SameMetrics(o *Env) bool {
	a, b := e.metricScopes(), o.metricScopes()
	if len(a) != len(b) {
		return false
	}
	for i, sc := range a {
		oc := b[i]
		if sc.name != oc.name {
			return false
		}
		p, q := Of(sc.k), Of(oc.k)
		p.SnapshotKernel(sc.k)
		q.SnapshotKernel(oc.k)
		if !p.M.Same(q.M) {
			return false
		}
	}
	return true
}

// metricScopes returns the scopes WriteMetrics dumps: all of them when
// e observes, none otherwise.
func (e *Env) metricScopes() []envScope {
	if !e.Observe {
		return nil
	}
	return e.scopes
}

// WriteMetrics snapshots every observed kernel (SnapshotKernel) and
// dumps its registry to w under a "# scope <name>" header, in scope
// order.
func (e *Env) WriteMetrics(w io.Writer) error {
	for _, sc := range e.metricScopes() {
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
