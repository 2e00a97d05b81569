package obs

import (
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
func appendJSONString(b []byte, s string) []byte {
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
type chromeWriter struct {
	w     io.Writer
	buf   []byte
	err   error
	first bool
}

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

func (cw *chromeWriter) meta(pid, tid int, name, value string) {
	cw.next()
	b := append(cw.buf, `{"ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"args":{"name":`...)
	b = appendJSONString(b, value)
	cw.buf = append(b, "}}"...)
}

func (cw *chromeWriter) record(pid, tid int, r *Record) {
	cw.next()
	b := append(cw.buf, `{"ph":"`...)
	b = append(b, byte(r.Phase))
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, int64(r.TS)/1000, 10)
	ns := int64(r.TS) % 1000
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, r.Cat)
	b = append(b, `,"name":`...)
	b = appendJSONString(b, r.Name)
	switch r.Phase {
	case PhaseComplete:
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, int64(r.Dur)/1000, 10)
	case PhaseBegin, PhaseEnd:
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, r.Span, 10)
	case PhaseInstant:
		b = append(b, `,"s":"t"`...)
	}
	if r.Args != "" || ns != 0 {
		b = append(b, `,"args":{`...)
		if r.Args != "" {
			b = append(b, `"detail":`...)
			b = appendJSONString(b, r.Args)
			if ns != 0 {
				b = append(b, ',')
			}
		}
		if ns != 0 {
			b = append(b, `"tsns":`...)
			b = strconv.AppendInt(b, int64(r.TS), 10)
		}
		b = append(b, '}')
	}
	cw.buf = append(b, '}')
}

// WriteChromeTrace writes the scopes as one Chrome trace_event JSON
// document. Output is deterministic: scopes keep their given order
// (pid = index+1), tracks are numbered in order of first appearance,
// and records are emitted in recording order (kernel dispatch order).
func WriteChromeTrace(w io.Writer, scopes []Scope) error {
	n := 0
	for _, sc := range scopes {
		n += len(sc.Trace.Records()) + 1
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
	tids := map[string]int{}
	for si, sc := range scopes {
		pid := si + 1
		cw.meta(pid, 0, "process_name", sc.Name)
		clear(tids)
		recs := sc.Trace.Records()
		for i := range recs {
			r := &recs[i]
			tid, ok := tids[r.Track]
			if !ok {
				tid = len(tids) + 1
				tids[r.Track] = tid
				cw.meta(pid, tid, "thread_name", r.Track)
			}
			cw.record(pid, tid, r)
		}
	}
	cw.buf = append(cw.buf, "\n]}\n"...)
	cw.flush()
	return cw.err
}
