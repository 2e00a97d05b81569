package platform

import (
	"testing"

	"dynaplat/internal/obs"
	"dynaplat/internal/obs/obstest"
	"dynaplat/internal/sim"
)

// A node added to a platform on an observed kernel after other apps have
// started records its activations into the kernel's plane with no wiring
// call.
func TestLateNodeObserved(t *testing.T) {
	k := (&obs.Env{Observe: true}).Kernel("late", 1)
	p := New(k, nil)
	start := func(ecu, app string) *AppInstance {
		t.Helper()
		n, err := p.AddNode(rtosECU(ecu), ModeIsolated, ms(1)/4)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := n.Install(daApp(app, ms(10), ms(2)), Behavior{})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start(); err != nil {
			t.Fatal(err)
		}
		return inst
	}
	start("cpmA", "brake")
	k.RunUntil(sim.Time(ms(50)))
	steer := start("cpmB", "steer")
	k.RunUntil(sim.Time(ms(100)))

	o := obs.Of(k)
	jobs := o.M.Counter("plat_jobs", obs.Labels{Layer: "platform", ECU: "cpmB", Iface: "steer"}).Value()
	if jobs == 0 || jobs != steer.Activations {
		t.Errorf("late node recorded %d plat_jobs, want its %d activations", jobs, steer.Activations)
	}
	slices := 0
	for _, r := range obstest.Records(t, o.T) {
		if r.Track == "ecu:cpmB" && r.Name == "steer" {
			slices++
		}
	}
	if int64(slices) != jobs {
		t.Errorf("late node traced %d activation slices, want %d", slices, jobs)
	}
}
