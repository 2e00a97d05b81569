package obs

import (
	"dynaplat/internal/sim"
)

// Phase is the Chrome trace_event phase of a recorded event.
type Phase byte

const (
	PhaseBegin    Phase = 'b' // async span begin
	PhaseEnd      Phase = 'e' // async span end
	PhaseInstant  Phase = 'i' // instant event
	PhaseComplete Phase = 'X' // complete event (begin + duration)
)

// Span identifies an in-flight async span. The zero Span is invalid;
// valid IDs start at 1 and are ordinals assigned in kernel dispatch
// order, which makes them deterministic per seed.
type Span struct {
	id uint64
}

// Valid reports whether the span was actually started (tracing enabled).
func (s Span) Valid() bool { return s.id != 0 }

// Record is one trace event in virtual time.
type Record struct {
	TS    sim.Time // virtual timestamp
	Dur   sim.Duration
	Phase Phase
	Cat   string // category: "kernel", "net", "soa", "faults", "mode", ...
	Name  string // event / span name
	Track string // logical track (-> Chrome tid), e.g. "can:body", "ecu1"
	Span  uint64 // async span id (0 for instants)
	Args  string // preformatted detail, "" when none
}

// Trace records spans and instants in virtual time. All state is owned
// by the simulation goroutine (the kernel is single-threaded), so Trace
// does no locking. A nil *Trace is safe: every method is a no-op, which
// is how the hooks stay free when observability is disabled.
type Trace struct {
	k    *sim.Kernel
	recs []Record
	next uint64 // next span ordinal (first handed out is 1)

	// Cap bounds the number of retained records; 0 means unlimited.
	// When full, further records are counted in Dropped but not stored.
	// A capped trace allocates its Cap records (at most presizeMax) once,
	// on the first push.
	Cap     int
	Dropped int64
}

// NewTrace returns a tracer stamping records with k's virtual clock.
func NewTrace(k *sim.Kernel) *Trace {
	return &Trace{k: k}
}

// Records returns the retained records in recording order.
func (t *Trace) Records() []Record {
	if t == nil {
		return nil
	}
	return t.recs
}

// presizeMax bounds the records a capped trace allocates up front
// (1.5 MiB), so a large Cap stays an upper bound on memory rather than
// its first allocation; beyond it the slice grows as records arrive.
const presizeMax = 1 << 14

// retains reports whether a record pushed now would be kept: the trace
// exists and is not full. Hooks that format args check it first, so a
// full trace costs a count, not a string.
func (t *Trace) retains() bool {
	return t != nil && (t.Cap == 0 || len(t.recs) < t.Cap)
}

func (t *Trace) push(r Record) {
	if !t.retains() {
		t.Dropped++
		return
	}
	if cap(t.recs) == 0 && t.Cap > 0 {
		t.recs = make([]Record, 0, min(t.Cap, presizeMax))
	}
	t.recs = append(t.recs, r)
}

// Begin opens an async span on the given track and returns its handle.
func (t *Trace) Begin(cat, name, track, args string) Span {
	if t == nil {
		return Span{}
	}
	t.next++
	id := t.next
	t.push(Record{TS: t.k.Now(), Phase: PhaseBegin, Cat: cat, Name: name, Track: track, Span: id, Args: args})
	return Span{id: id}
}

// End closes an async span. Name and track must match Begin's for the
// Chrome viewer to pair them; args may add outcome detail (e.g. "lost").
func (t *Trace) End(cat, name, track string, s Span, args string) {
	if t == nil || s.id == 0 {
		return
	}
	t.push(Record{TS: t.k.Now(), Phase: PhaseEnd, Cat: cat, Name: name, Track: track, Span: s.id, Args: args})
}

// Instant records a point event on a track.
func (t *Trace) Instant(cat, name, track, args string) {
	if t == nil {
		return
	}
	t.push(Record{TS: t.k.Now(), Phase: PhaseInstant, Cat: cat, Name: name, Track: track, Args: args})
}

// Complete records a closed interval [start, start+dur) in one event.
func (t *Trace) Complete(cat, name, track string, start sim.Time, dur sim.Duration, args string) {
	if t == nil {
		return
	}
	t.push(Record{TS: start, Dur: dur, Phase: PhaseComplete, Cat: cat, Name: name, Track: track, Args: args})
}
