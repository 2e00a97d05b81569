// Package obstest reads a trace back as records, for tests. It renders
// the trace with obs.WriteChromeTrace and decodes the document, so it
// needs nothing beyond obs's public API and sees exactly what a trace
// viewer sees.
package obstest

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"dynaplat/internal/obs"
	"dynaplat/internal/sim"
)

// Record is one trace event as the Chrome document carries it.
type Record struct {
	TS    sim.Time     // virtual timestamp
	Dur   sim.Duration // PhaseComplete, exact to the ns
	Phase obs.Phase
	Cat   string // category: "kernel", "net", "soa", "faults", "mode", ...
	Name  string // event / span name, or the kernel trace line
	Track string // logical track, e.g. "can:body", "ecu:ecu1"
	Span  uint64 // async span id (0 for instants)
	Args  string // detail, "" when none
}

// Records returns tr's retained records in recording order, nil when it
// holds none. It fails t if the rendered document does not decode.
func Records(t testing.TB, tr *obs.Trace) []Record {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, []obs.Scope{{Name: "records", Trace: tr}}); err != nil {
		t.Fatalf("obstest: render: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			TS   int64   `json:"ts"`
			Dur  float64 `json:"dur"`
			Cat  string  `json:"cat"`
			Name string  `json:"name"`
			ID   uint64  `json:"id"`
			Args struct {
				Name   string `json:"name"`
				Detail string `json:"detail"`
				TSNS   int64  `json:"tsns"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("obstest: decode: %v", err)
	}
	var out []Record
	tracks := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name == "thread_name" {
				tracks[ev.Tid] = ev.Args.Name
			}
			continue
		}
		ts := sim.Time(ev.TS * 1000)
		if ev.Args.TSNS != 0 {
			ts = sim.Time(ev.Args.TSNS)
		}
		out = append(out, Record{
			TS: ts, Dur: sim.Duration(math.Round(ev.Dur * 1000)), Phase: obs.Phase(ev.Ph[0]),
			Cat: ev.Cat, Name: ev.Name, Track: tracks[ev.Tid], Span: ev.ID, Args: ev.Args.Detail,
		})
	}
	return out
}
