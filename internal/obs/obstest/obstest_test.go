package obstest

import (
	"testing"

	"dynaplat/internal/obs"
	"dynaplat/internal/sim"
)

// TestRecordsDecodesEveryField reads back one record of each phase,
// with sub-microsecond timestamps and durations (a 400 ns slice keeps
// its length), details and several tracks.
func TestRecordsDecodesEveryField(t *testing.T) {
	if recs := Records(t, nil); recs != nil {
		t.Fatalf("nil trace: %+v, want no records", recs)
	}
	k := sim.NewKernel(1)
	tr := obs.NewTrace(k)
	var sp obs.Span
	cat, frame, track := tr.Resolve("net"), tr.Resolve("frame"), tr.Resolve("can:body")
	k.At(sim.Time(1500), func() { sp = tr.BeginRef(cat, frame, track, tr.Resolve("id=0x12")) })
	k.At(sim.Time(3000), func() {
		tr.EndRef(cat, frame, track, sp, tr.Resolve(`delivered "x"`))
		tr.Instant("mode", "degrade", "modes", "")
	})
	k.Run()
	tr.Complete("platform", "job", "ecu:ecu1", sim.Time(4250), 2*sim.Microsecond, "")
	tr.Complete("platform", "job", "ecu:ecu1", sim.Time(6250), 400, "")
	tr.Complete("platform", "job", "ecu:ecu1", sim.Time(7000), 1001, "")
	want := []Record{
		{TS: 1500, Phase: obs.PhaseBegin, Cat: "net", Name: "frame", Track: "can:body", Span: 1, Args: "id=0x12"},
		{TS: 3000, Phase: obs.PhaseEnd, Cat: "net", Name: "frame", Track: "can:body", Span: 1, Args: `delivered "x"`},
		{TS: 3000, Phase: obs.PhaseInstant, Cat: "mode", Name: "degrade", Track: "modes"},
		{TS: 4250, Dur: 2 * sim.Microsecond, Phase: obs.PhaseComplete, Cat: "platform", Name: "job", Track: "ecu:ecu1"},
		{TS: 6250, Dur: 400, Phase: obs.PhaseComplete, Cat: "platform", Name: "job", Track: "ecu:ecu1"},
		{TS: 7000, Dur: 1001, Phase: obs.PhaseComplete, Cat: "platform", Name: "job", Track: "ecu:ecu1"},
	}
	got := Records(t, tr)
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
