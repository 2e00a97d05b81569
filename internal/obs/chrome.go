package obs

import (
	"bytes"
	"errors"
	"io"
	"strconv"

	"dynaplat/internal/sim"
)

// Chrome trace_event export (the JSON Array Format understood by
// chrome://tracing and Perfetto). The JSON is assembled by hand instead
// of encoding/json so the byte stream is fully under our control: field
// order, number formatting, and escaping are fixed, which is what makes
// trace output byte-identical per seed.
//
// Every event is appended into one reused byte buffer (strconv.Append*,
// appendJSONString), which is flushed to w whenever it passes
// chunkSize, so rendering costs a fixed buffer rather than a copy of
// the document.
//
// Mapping:
//
//	pid         scope ordinal (one per Scope, i.e. per kernel/experiment)
//	tid         track ordinal within its scope, in order of first use
//	ts          virtual time in integer microseconds; sub-µs remainder
//	            is preserved in args.tsns (virtual ns) when nonzero
//	dur         'X' duration in microseconds, exact to the ns: whole µs
//	            as an integer, otherwise up to three decimals (400 ns is 0.4)
//	ph          'b'/'e' async spans, 'i' instants, 'X' complete, 'M' metadata
//	id          span ordinal (assigned in kernel dispatch order)
//
// A process_name metadata event names each scope and a thread_name
// metadata event names each track.

// chunkSize is the rendered size at which the buffer is flushed to the
// writer.
const chunkSize = 64 << 10

// appendJSONString appends s as a JSON string literal (quotes included).
// Strings with nothing to escape, which is nearly all tracks, categories
// and names, are copied in one append after a single scan.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	i := 0
	for i < len(s) && s[i] >= 0x20 && s[i] != '"' && s[i] != '\\' {
		i++
	}
	b = append(b, '"')
	b = append(b, s[:i]...)
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			b = append(b, '\\', '"')
		case c == '\\':
			b = append(b, '\\', '\\')
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// Scope is one traced kernel's worth of records, exported as one Chrome
// "process". Name appears in the viewer's process selector.
type Scope struct {
	Name   string
	Trace  *Trace
	Kernel *sim.Kernel // the traced kernel; WriteChromeTrace ignores it
}

// chromeWriter renders events into one reused buffer and writes it to
// w each time it passes chunkSize. The first write error is kept and
// later writes are skipped.
//
// Per trace it keeps each interned string's JSON literal, escaped on
// first use (quoted), and each track's tid, both indexed by string ID.
type chromeWriter struct {
	w     io.Writer
	buf   []byte
	err   error
	first bool

	t     *Trace
	esc   []byte  // the escaped literals, back to back
	lits  []lit   // by string ID: where its literal is in esc
	tids  []int32 // by string ID: the tid of the track, 0 until first used
	ntids int32   // tracks numbered so far
	text  []byte  // a payload's text before escaping
}

// lit locates an escaped literal in chromeWriter.esc; end is 0 until
// the string is escaped.
type lit struct{ at, end int32 }

// next starts an event: the separator after the previous one, after a
// flush when the buffer is full.
func (cw *chromeWriter) next() {
	if len(cw.buf) >= chunkSize {
		cw.flush()
	}
	if !cw.first {
		cw.buf = append(cw.buf, ",\n"...)
	}
	cw.first = false
}

func (cw *chromeWriter) flush() {
	if cw.err == nil {
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
}

// use makes t the trace being rendered: its strings are not escaped yet
// and its tracks have no tid.
func (cw *chromeWriter) use(t *Trace) {
	cw.t = t
	n := len(t.strs)
	cw.esc = cw.esc[:0]
	cw.lits = resize(cw.lits, n)
	cw.tids = resize(cw.tids, n)
	cw.ntids = 0
}

// resize returns s with length n and every element zero.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// quoted returns the JSON literal of the interned string id.
func (cw *chromeWriter) quoted(id Ref) []byte {
	l := &cw.lits[id]
	if l.end == 0 {
		l.at = int32(len(cw.esc))
		cw.esc = appendJSONString(cw.esc, cw.t.strs[id])
		l.end = int32(len(cw.esc))
	}
	return cw.esc[l.at:l.end]
}

// payload appends the JSON literal of r's payload text.
func (cw *chromeWriter) payload(b []byte, r *record) []byte {
	cw.text = cw.t.appendPayload(cw.text[:0], r)
	return appendJSONString(b, cw.text)
}

func (cw *chromeWriter) meta(pid, tid int, name string, value []byte) {
	cw.next()
	b := append(cw.buf, `{"ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"name":"`...)
	b = append(b, name...)
	b = append(b, `","args":{"name":`...)
	b = append(b, value...)
	cw.buf = append(b, "}}"...)
}

func (cw *chromeWriter) record(pid, tid int, r *record) {
	cw.next()
	b := append(cw.buf, `{"ph":"`...)
	b = append(b, byte(r.phase))
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, int64(r.ts)/1000, 10)
	ns := int64(r.ts) % 1000
	b = append(b, `,"cat":`...)
	b = append(b, cw.quoted(r.cat)...)
	b = append(b, `,"name":`...)
	if r.form == formLine {
		b = cw.payload(b, r)
	} else {
		b = append(b, cw.quoted(r.name)...)
	}
	switch r.phase {
	case PhaseComplete:
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, int64(r.dur)/1000, 10)
		if ns := int64(r.dur) % 1000; ns != 0 {
			b = append(b, '.', byte('0'+ns/100), byte('0'+ns/10%10), byte('0'+ns%10))
			b = bytes.TrimRight(b, "0")
		}
	case PhaseBegin, PhaseEnd:
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, r.span, 10)
	case PhaseInstant:
		b = append(b, `,"s":"t"`...)
	}
	detail := r.form != formLine && (r.form != formPlain || r.s[0] != 0)
	if detail || ns != 0 {
		b = append(b, `,"args":{`...)
		if detail {
			b = append(b, `"detail":`...)
			if r.form == formPlain {
				b = append(b, cw.quoted(r.s[0])...)
			} else {
				b = cw.payload(b, r)
			}
			if ns != 0 {
				b = append(b, ',')
			}
		}
		if ns != 0 {
			b = append(b, `"tsns":`...)
			b = strconv.AppendInt(b, int64(r.ts), 10)
		}
		b = append(b, '}')
	}
	cw.buf = append(b, '}')
}

// WriteChromeTrace writes the scopes as one Chrome trace_event JSON
// document. Output is deterministic: scopes keep their given order
// (pid = index+1), tracks are numbered in order of first appearance,
// and records are emitted in recording order (kernel dispatch order),
// walking each trace's blocks. A checking trace (Env.Recheck) keeps no
// records, so a scope holding one is an error.
func WriteChromeTrace(w io.Writer, scopes []Scope) error {
	n := 0
	for _, sc := range scopes {
		if sc.Trace != nil && sc.Trace.ref != nil {
			return errors.New("obs: scope " + sc.Name + " holds a checking trace, which keeps no records to render")
		}
		n += sc.Trace.Len() + 1
	}
	// Records render to about 100-130 bytes. A destination that can
	// presize (bytes.Buffer, strings.Builder) grows once to the estimate
	// instead of doubling chunk by chunk.
	est := n * 128
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(est)
	}
	cw := &chromeWriter{w: w, buf: make([]byte, 0, min(est, chunkSize+chunkSize/4)), first: true}
	cw.buf = append(cw.buf, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"...)
	for si, sc := range scopes {
		pid := si + 1
		cw.text = appendJSONString(cw.text[:0], sc.Name)
		cw.meta(pid, 0, "process_name", cw.text)
		if sc.Trace == nil {
			continue
		}
		cw.use(sc.Trace)
		for b := sc.Trace.head; b != nil; b = b.next {
			for i := range b.recs[:b.n] {
				r := &b.recs[i]
				tid := cw.tids[r.track]
				if tid == 0 {
					cw.ntids++
					tid = cw.ntids
					cw.tids[r.track] = tid
					cw.meta(pid, int(tid), "thread_name", cw.quoted(r.track))
				}
				cw.record(pid, int(tid), r)
			}
		}
	}
	cw.buf = append(cw.buf, "\n]}\n"...)
	cw.flush()
	return cw.err
}
