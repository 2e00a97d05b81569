package reconfig

import (
	"fmt"
	"maps"
	"testing"

	"dynaplat/internal/admission"
	"dynaplat/internal/model"
	"dynaplat/internal/sim"
)

// refPeriods derives every ECU's longest deterministic app period from
// scratch, one ECU at a time.
func refPeriods(sys *model.System) map[string]sim.Duration {
	out := map[string]sim.Duration{}
	for _, e := range sys.ECUs {
		for _, a := range sys.AppsOn(e.Name) {
			if a.Kind == model.Deterministic && a.Period > out[e.Name] {
				out[e.Name] = a.Period
			}
		}
	}
	return out
}

// TestPeriodsFollowAdmissionGeneration: the tick keeps its per-ECU
// periods and silence thresholds until the admission generation moves.
// After every step of a random sequence of Admit, Remove, Restore and
// Install (the orchestrator's re-admission), a refresh leaves them equal
// to a fresh derivation. A controller change that did not advance the
// generation would leave them stale.
func TestPeriodsFollowAdmissionGeneration(t *testing.T) {
	r := newRig(t, 3, standardDeployment())
	o, ctrl := r.orc, r.ctrl
	rng := sim.NewRNG(24)
	ecus := []string{"ecuA", "ecuB", "ecuC"}
	periods := []sim.Duration{msd(5), msd(10), msd(20), msd(40)}
	snaps := []admission.Snapshot{ctrl.Snapshot()}
	randomDA := func(i int) model.App {
		return model.App{Name: fmt.Sprintf("da%d", i), Kind: model.Deterministic, ASIL: model.ASILB,
			Period: periods[rng.Intn(len(periods))], WCET: 100 * sim.Microsecond, MemoryKB: 8}
	}
	changes := 0
	for step := 0; step < 400; step++ {
		before := maps.Clone(refPeriods(r.sys))
		switch rng.Intn(5) {
		case 0, 1:
			_, _ = ctrl.Admit(admission.Request{App: randomDA(step), ECU: ecus[rng.Intn(len(ecus))]})
		case 2:
			if apps := r.sys.Apps; len(apps) > 0 {
				_ = ctrl.Remove(apps[rng.Intn(len(apps))].Name)
			}
		case 3:
			if rng.Intn(2) == 0 {
				snaps = append(snaps, ctrl.Snapshot())
			} else {
				ctrl.Restore(snaps[rng.Intn(len(snaps))])
			}
		case 4:
			ctrl.Install(randomDA(step), ecus[rng.Intn(len(ecus))], nil)
		}
		want := refPeriods(r.sys)
		if !maps.Equal(before, want) {
			changes++
		}
		o.refreshPeriods()
		if !maps.Equal(o.periods, want) {
			t.Fatalf("step %d: periods %v, want %v", step, o.periods, want)
		}
		for _, w := range o.watched {
			if thr := o.silenceThreshold(want[w.ecu]); w.thr != thr {
				t.Fatalf("step %d: %s threshold %v, want %v", step, w.ecu, w.thr, thr)
			}
		}
	}
	if changes < 50 {
		t.Errorf("only %d steps changed a period; the sequence exercises too little", changes)
	}
}
