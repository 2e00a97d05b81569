package obs

import (
	"slices"
	"strconv"

	"dynaplat/internal/network"
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

// Ref names a string in a Trace's intern table; 0 is "". A Ref is valid
// only in the trace that resolved it (Trace.Resolve).
type Ref uint32

// form says which text of a record its typed payload (s, i) formats.
type form uint8

const (
	formPlain     form = iota // name is name; the detail is s[0] ("" for none)
	formLine                  // name is the kernel trace line (line, s, i); no detail
	formFrame                 // detail is "id=0x<i0> <s0>-><s1> class=<i1> bytes=<i2>"
	formDelivered             // detail is "delivered <s0>"
	formLost                  // detail is "lost: <s0>"
)

// record is one stored trace event. It holds no pointers: its strings
// are IDs into the trace's intern table, and a detail or kernel line
// the hooks would have formatted is a typed payload that only the
// renderer turns into text. The collector therefore never scans
// a record.
type record struct {
	ts               sim.Time
	dur              sim.Duration // PhaseComplete
	span             uint64       // PhaseBegin, PhaseEnd
	i                [3]int64
	s                [3]Ref
	cat, name, track Ref
	phase            Phase
	form             form
	line             sim.LineForm // formLine's layout
}

// blockSize is the number of records in one block.
const blockSize = 256

// block is a fixed run of records. A trace chains blocks as it fills
// them, so a record never moves once recorded. next comes first: it is
// a block's only pointer, and the collector scans no further than it.
type block struct {
	next *block
	n    int // records used
	recs [blockSize]record
}

// Trace records spans and instants in virtual time. All state is owned
// by the simulation goroutine (the kernel is single-threaded), so Trace
// does no locking. A nil *Trace is safe: every method is a no-op, which
// is how the hooks stay free when observability is disabled.
type Trace struct {
	k          *sim.Kernel
	head, tail *block
	n          int    // retained records
	next       uint64 // next span ordinal (first handed out is 1)

	strs []string       // interned strings by ID; strs[0] is ""
	ids  map[string]Ref // ID of each interned string but ""

	// A checking trace (Env.Recheck) keeps no records. ref is the trace
	// it re-records: add hands out scratch, and the record there is
	// compared with ref's record of the same index when the next add
	// comes (pending until then) or in Same. at is ref's block holding
	// the index compared last; diverged is set by the first mismatch.
	ref      *Trace
	scratch  record
	pending  bool
	at       *block
	diverged bool

	// Cap bounds the number of retained records; 0 means unlimited.
	// When full, further records are counted in Dropped but not stored.
	Cap     int
	Dropped int64
}

// NewTrace returns a tracer stamping records with k's virtual clock.
func NewTrace(k *sim.Kernel) *Trace {
	return &Trace{k: k, strs: []string{""}, ids: map[string]Ref{}}
}

// intern returns s's ID, adding s to the table on first use.
func (t *Trace) intern(s string) Ref {
	if s == "" {
		return 0
	}
	id, ok := t.ids[s]
	if !ok {
		id = Ref(len(t.strs))
		t.strs = append(t.strs, s)
		t.ids[s] = id
	}
	return id
}

// Resolve returns s's ID in t, interning it now, so that a site can
// resolve its constant strings once and record with the *Ref methods.
// Interning early changes no rendered document: the renderer numbers
// tracks by first use and prints only the strings records name. A nil
// trace returns 0.
func (t *Trace) Resolve(s string) Ref {
	if t == nil {
		return 0
	}
	return t.intern(s)
}

// Len returns the number of retained records (for a checking trace,
// the number it compared).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Same reports whether t and u recorded the same trace: equal intern
// tables, counts and span ordinal, then equal records block by block,
// compared with == and no payload formatted. It covers all the renderer
// reads. A nil trace equals only a nil trace.
//
// A checking trace answers for its reference: it is Same as u when it
// matched its reference record for record and the reference is Same as
// u. One that diverged kept nothing to compare, so it is Same as no
// trace.
func (t *Trace) Same(u *Trace) bool {
	if t == nil || u == nil {
		return t == u
	}
	if t.ref == nil && u.ref != nil {
		t, u = u, t
	}
	if t.ref != nil {
		return t.matchesRef() && t.ref.Same(u)
	}
	if t == u {
		return true
	}
	if !t.sameCounts(u) {
		return false
	}
	for a, b := t.head, u.head; a != nil || b != nil; a, b = a.next, b.next {
		if a == nil || b == nil || !slices.Equal(a.recs[:a.n], b.recs[:b.n]) {
			return false
		}
	}
	return true
}

// sameCounts reports whether t and u have equal record and drop counts,
// span ordinals and intern tables.
func (t *Trace) sameCounts(u *Trace) bool {
	return t.n == u.n && t.Dropped == u.Dropped && t.next == u.next && slices.Equal(t.strs, u.strs)
}

// matchesRef reports whether the checking trace t recorded what its
// reference did: every record equal to the reference's at its index,
// the last one included, and equal counts and intern tables.
func (t *Trace) matchesRef() bool {
	t.settle()
	return !t.diverged && t.sameCounts(t.ref)
}

// settle compares the checking trace's pending record with its
// reference's record of the same index, n-1.
func (t *Trace) settle() {
	if !t.pending {
		return
	}
	t.pending = false
	if t.diverged {
		return
	}
	i := (t.n - 1) % blockSize
	if t.n == 1 {
		t.at = t.ref.head
	} else if i == 0 {
		t.at = t.at.next
	}
	if t.at == nil || i >= t.at.n || t.at.recs[i] != t.scratch {
		t.diverged = true
	}
}

// appendPayload appends the text r's payload gives: the kernel line of
// a formLine record, the detail of the others.
func (t *Trace) appendPayload(b []byte, r *record) []byte {
	switch r.form {
	case formLine:
		l := sim.TraceLine{Form: r.line, I: r.i}
		for j, id := range r.s {
			l.S[j] = t.strs[id]
		}
		return l.AppendText(b)
	case formFrame:
		b = append(b, "id=0x"...)
		b = strconv.AppendUint(b, uint64(r.i[0]), 16)
		b = append(b, ' ')
		b = append(b, t.strs[r.s[0]]...)
		b = append(b, "->"...)
		b = append(b, t.strs[r.s[1]]...)
		b = append(b, " class="...)
		b = append(b, network.Class(r.i[1]).String()...)
		b = append(b, " bytes="...)
		return strconv.AppendInt(b, r.i[2], 10)
	case formDelivered:
		return append(append(b, "delivered "...), t.strs[r.s[0]]...)
	case formLost:
		return append(append(b, "lost: "...), t.strs[r.s[0]]...)
	}
	return append(b, t.strs[r.s[0]]...)
}

// add returns the slot of a new record stamped ts and ph, chaining a
// block when the last one is full. A full (or nil) trace returns nil
// and counts the drop, so a hook pays for no interning once it is full.
// A checking trace first compares the record it handed out last, then
// hands out its scratch slot again.
func (t *Trace) add(ts sim.Time, ph Phase) *record {
	if t == nil {
		return nil
	}
	if t.Cap > 0 && t.n >= t.Cap {
		t.Dropped++
		return nil
	}
	if t.ref != nil {
		t.settle()
		t.n++
		t.scratch = record{ts: ts, phase: ph}
		t.pending = true
		return &t.scratch
	}
	b := t.tail
	if b == nil || b.n == blockSize {
		b = new(block)
		if t.tail == nil {
			t.head = b
		} else {
			t.tail.next = b
		}
		t.tail = b
	}
	r := &b.recs[b.n]
	b.n++
	t.n++
	r.ts, r.phase = ts, ph
	return r
}

// plain interns r's strings and its detail.
func (t *Trace) plain(r *record, cat, name, track, args string) {
	r.plain(t.intern(cat), t.intern(name), t.intern(track), t.intern(args))
}

// plain sets r's resolved strings and its detail.
func (r *record) plain(cat, name, track, args Ref) {
	r.cat, r.name, r.track, r.s[0] = cat, name, track, args
}

// begin opens a span and returns it with its record slot (nil when the
// trace is full: the ordinal advances regardless).
func (t *Trace) begin() (Span, *record) {
	t.next++
	s := Span{id: t.next}
	r := t.add(t.k.Now(), PhaseBegin)
	if r != nil {
		r.span = s.id
	}
	return s, r
}

// instant returns the slot of an instant stamped now (nil when the
// trace is full).
func (t *Trace) instant() *record { return t.add(t.k.Now(), PhaseInstant) }

// end returns the record slot closing s (nil when the trace is full).
func (t *Trace) end(s Span) *record {
	r := t.add(t.k.Now(), PhaseEnd)
	if r != nil {
		r.span = s.id
	}
	return r
}

// BeginRef opens an async span on the given track and returns its
// handle. Its strings are resolved in t (Resolve).
func (t *Trace) BeginRef(cat, name, track, args Ref) Span {
	if t == nil {
		return Span{}
	}
	s, r := t.begin()
	if r != nil {
		r.plain(cat, name, track, args)
	}
	return s
}

// EndRef closes an async span. Name and track must match BeginRef's
// for the Chrome viewer to pair them; args may add outcome detail (e.g.
// "dead-letter"). Its strings are resolved in t.
func (t *Trace) EndRef(cat, name, track Ref, s Span, args Ref) {
	if t == nil || s.id == 0 {
		return
	}
	if r := t.end(s); r != nil {
		r.plain(cat, name, track, args)
	}
}

// Instant records a point event on a track.
func (t *Trace) Instant(cat, name, track, args string) {
	if t == nil {
		return
	}
	if r := t.instant(); r != nil {
		t.plain(r, cat, name, track, args)
	}
}

// Complete records a closed interval [start, start+dur) in one event.
func (t *Trace) Complete(cat, name, track string, start sim.Time, dur sim.Duration, args string) {
	if r := t.add(start, PhaseComplete); r != nil {
		r.dur = dur
		t.plain(r, cat, name, track, args)
	}
}

// CompleteRef is Complete with strings resolved in t.
func (t *Trace) CompleteRef(cat, name, track Ref, start sim.Time, dur sim.Duration, args Ref) {
	if r := t.add(start, PhaseComplete); r != nil {
		r.dur = dur
		r.plain(cat, name, track, args)
	}
}
