package obs_test

import (
	"testing"

	"dynaplat/internal/obs"
	"dynaplat/internal/obs/obstest"
	"dynaplat/internal/sim"
)

// Span ordinals start at 1 and follow recording order; an EndRef
// carries its BeginRef's ordinal.
func TestSpanOrdinalsSequential(t *testing.T) {
	k := sim.NewKernel(1)
	tr := obs.NewTrace(k)
	c, a, b, tk := tr.Resolve("c"), tr.Resolve("a"), tr.Resolve("b"), tr.Resolve("t")
	s1 := tr.BeginRef(c, a, tk, 0)
	tr.BeginRef(c, b, tk, 0)
	tr.EndRef(c, a, tk, s1, tr.Resolve("done"))
	recs := obstest.Records(t, tr)
	if len(recs) != 3 || recs[0].Span != 1 || recs[1].Span != 2 ||
		recs[2].Phase != obs.PhaseEnd || recs[2].Span != 1 || recs[2].Args != "done" {
		t.Errorf("unexpected records: %+v", recs)
	}
}

// A plane installed as the kernel's observer captures existing k.Trace
// call sites as instants, and Of finds it.
func TestObserverReceivesKernelTrace(t *testing.T) {
	k := sim.NewKernel(1)
	o := obs.New(k)
	k.SetObserver(o)
	if obs.Of(k) != o {
		t.Fatal("Of does not return the installed plane")
	}
	k.At(sim.Time(5*sim.Microsecond), func() {
		k.Trace("faults", "inject %s", "crash")
	})
	k.Run()
	recs := obstest.Records(t, o.T)
	if len(recs) != 1 {
		t.Fatalf("observed %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Cat != "faults" || r.Name != "inject crash" || r.Track != "kernel" ||
		r.TS != sim.Time(5*sim.Microsecond) || r.Phase != obs.PhaseInstant {
		t.Errorf("observed record = %+v", r)
	}
}
