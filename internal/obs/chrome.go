package obs

import (
	"io"
	"strconv"
	"strings"

	"dynaplat/internal/sim"
)

// Chrome trace_event export (the JSON Array Format understood by
// chrome://tracing and Perfetto). The JSON is assembled by hand with a
// strings.Builder instead of encoding/json so the byte stream is fully
// under our control: field order, number formatting, and escaping are
// fixed, which is what makes trace output byte-identical per seed.
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

// jsonEscape writes s as a JSON string literal (quotes included).
func jsonEscape(sb *strings.Builder, s string) {
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			sb.WriteString(`\"`)
		case c == '\\':
			sb.WriteString(`\\`)
		case c == '\n':
			sb.WriteString(`\n`)
		case c == '\t':
			sb.WriteString(`\t`)
		case c < 0x20:
			const hex = "0123456789abcdef"
			sb.WriteString(`\u00`)
			sb.WriteByte(hex[c>>4])
			sb.WriteByte(hex[c&0xf])
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
}

// Scope is one traced kernel's worth of records, exported as one Chrome
// "process". Name appears in the viewer's process selector.
type Scope struct {
	Name   string
	Trace  *Trace
	Kernel *sim.Kernel // the traced kernel; WriteChromeTrace ignores it
}

// WriteChromeTrace writes the scopes as one Chrome trace_event JSON
// document. Output is deterministic: scopes keep their given order
// (pid = index+1), tracks are numbered in order of first appearance,
// and records are emitted in recording order (kernel dispatch order).
func WriteChromeTrace(w io.Writer, scopes []Scope) error {
	var sb strings.Builder
	sb.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			sb.WriteString(",\n")
		}
		first = false
		sb.WriteString(line)
	}
	var line strings.Builder
	meta := func(pid, tid int, name, value string) {
		line.Reset()
		line.WriteString(`{"ph":"M","pid":`)
		line.WriteString(strconv.Itoa(pid))
		line.WriteString(`,"tid":`)
		line.WriteString(strconv.Itoa(tid))
		line.WriteString(`,"name":`)
		jsonEscape(&line, name)
		line.WriteString(`,"args":{"name":`)
		jsonEscape(&line, value)
		line.WriteString(`}}`)
		emit(line.String())
	}
	for si, sc := range scopes {
		pid := si + 1
		meta(pid, 0, "process_name", sc.Name)
		if sc.Trace == nil {
			continue
		}
		tids := map[string]int{}
		tidOf := func(track string) int {
			id, ok := tids[track]
			if !ok {
				id = len(tids) + 1
				tids[track] = id
				meta(pid, id, "thread_name", track)
			}
			return id
		}
		for _, r := range sc.Trace.Records() {
			tid := tidOf(r.Track)
			line.Reset()
			line.WriteString(`{"ph":"`)
			line.WriteByte(byte(r.Phase))
			line.WriteString(`","pid":`)
			line.WriteString(strconv.Itoa(pid))
			line.WriteString(`,"tid":`)
			line.WriteString(strconv.Itoa(tid))
			line.WriteString(`,"ts":`)
			us := int64(r.TS) / 1000
			ns := int64(r.TS) % 1000
			line.WriteString(strconv.FormatInt(us, 10))
			line.WriteString(`,"cat":`)
			jsonEscape(&line, r.Cat)
			line.WriteString(`,"name":`)
			jsonEscape(&line, r.Name)
			if r.Phase == PhaseComplete {
				line.WriteString(`,"dur":`)
				line.WriteString(strconv.FormatInt(int64(r.Dur)/1000, 10))
			}
			if r.Phase == PhaseBegin || r.Phase == PhaseEnd {
				line.WriteString(`,"id":`)
				line.WriteString(strconv.FormatUint(r.Span, 10))
			}
			if r.Phase == PhaseInstant {
				line.WriteString(`,"s":"t"`)
			}
			if r.Args != "" || ns != 0 {
				line.WriteString(`,"args":{`)
				wrote := false
				if r.Args != "" {
					line.WriteString(`"detail":`)
					jsonEscape(&line, r.Args)
					wrote = true
				}
				if ns != 0 {
					if wrote {
						line.WriteByte(',')
					}
					line.WriteString(`"tsns":`)
					line.WriteString(strconv.FormatInt(int64(r.TS), 10))
				}
				line.WriteByte('}')
			}
			line.WriteByte('}')
			emit(line.String())
		}
	}
	sb.WriteString("\n]}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
