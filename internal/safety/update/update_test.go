package update

import (
	"errors"
	"strings"
	"testing"

	"dynaplat/internal/model"
	"dynaplat/internal/obs"
	"dynaplat/internal/obs/obstest"
	"dynaplat/internal/platform"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/tsn"
)

func ms(n int64) sim.Duration { return sim.Duration(n) * sim.Millisecond }

type rig struct {
	k    *sim.Kernel
	p    *platform.Platform
	mw   *soa.Middleware
	node *platform.Node
	mgr  *Manager
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	net := tsn.New(k, tsn.DefaultConfig("bb"))
	mw := soa.New(k, nil)
	mw.AddNetwork(net, 1400)
	p := platform.New(k, mw)
	node, err := p.AddNode(model.ECU{Name: "cpm", CPUMHz: 100, MemoryKB: 2048,
		HasMMU: true, OS: model.OSRTOS}, platform.ModeIsolated, ms(1)/4)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, p: p, mw: mw, node: node, mgr: NewManager(p, mw)}
}

func brakeSpec(version int) model.App {
	return model.App{Name: "brake", Kind: model.Deterministic, ASIL: model.ASILD,
		Period: ms(10), WCET: ms(2), Deadline: ms(10), MemoryKB: 128, Version: version}
}

func (r *rig) installV1(t *testing.T) *platform.AppInstance {
	t.Helper()
	inst, err := r.node.Install(brakeSpec(1), platform.Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	inst.Start()
	ep := r.mw.Endpoint("brake", "cpm")
	ep.Offer("BrakeStatus", soa.OfferOpts{Network: "bb"})
	r.node.Store().Put("brake", "calibration", []byte("k=1.05"))
	r.node.Store().Put("brake", "odometer", []byte("123456"))
	return inst
}

func TestStagedUpdatePhases(t *testing.T) {
	r := newRig(t)
	r.installV1(t)
	var rep Report
	doneAt := sim.Time(0)
	spec := brakeSpec(2)
	err := r.mgr.Staged("brake", spec, platform.Behavior{},
		[]Offers{{Iface: "BrakeStatus", Opts: soa.OfferOpts{Network: "bb"}}}, 0, nil,
		func(rp Report) { rep = rp; doneAt = r.k.Now() })
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunUntil(sim.Time(ms(500)))
	if doneAt == 0 {
		t.Fatal("update never completed")
	}
	if rep.From != 1 || rep.To != 2 {
		t.Errorf("versions %d→%d", rep.From, rep.To)
	}
	if len(rep.Stamps) != 4 {
		t.Fatalf("stamps = %v", rep.Stamps)
	}
	for i, ph := range []Phase{PhaseParallelStart, PhaseStateSync, PhaseRedirect, PhaseStopOld} {
		if rep.Stamps[i].Phase != ph {
			t.Errorf("stamp %d = %v, want %v", i, rep.Stamps[i].Phase, ph)
		}
		if i > 0 && rep.Stamps[i].Start < rep.Stamps[i-1].End {
			t.Errorf("phase %v overlaps predecessor", ph)
		}
	}
	if rep.Downtime != 0 {
		t.Errorf("staged downtime = %v, want 0", rep.Downtime)
	}
	if rep.SyncedKeys != 2 {
		t.Errorf("synced keys = %d, want 2", rep.SyncedKeys)
	}
	// Both instances were resident simultaneously.
	if rep.PeakMemoryKB < 256 {
		t.Errorf("peak memory = %dKB, want ≥ 256 (two instances)", rep.PeakMemoryKB)
	}
	// Old instance is gone, new one is running under the versioned name.
	if inst, _ := r.p.FindApp("brake"); inst != nil {
		t.Error("old instance still present")
	}
	inst, _ := r.p.FindApp("brake@2")
	if inst == nil || inst.State != platform.StateRunning {
		t.Fatal("new instance not running")
	}
	if r.mgr.InstanceName("brake") != "brake@2" {
		t.Errorf("active instance = %q", r.mgr.InstanceName("brake"))
	}
	// State survived.
	if v, ok := r.node.Store().Get("brake@2", "calibration"); !ok || string(v) != "k=1.05" {
		t.Error("state not synchronized")
	}
	// The service is now provided by the new instance at version 2.
	prov, ver, err := r.mw.Find("BrakeStatus")
	if err != nil || prov != "brake@2" || ver != 2 {
		t.Errorf("service provider = %s v%d (%v)", prov, ver, err)
	}
}

func TestStagedUpdateKeepsDADeadlines(t *testing.T) {
	// E5's core claim: the staged update never interrupts the control
	// function. The union of old+new activations covers every period.
	r := newRig(t)
	old := r.installV1(t)
	var newInst *platform.AppInstance
	err := r.mgr.Staged("brake", brakeSpec(2), platform.Behavior{}, nil, 0, nil,
		func(Report) { newInst, _ = r.p.FindApp("brake@2") })
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunUntil(sim.Time(ms(1000)))
	if newInst == nil {
		t.Fatal("update incomplete")
	}
	if old.Misses != 0 || newInst.Misses != 0 {
		t.Errorf("misses old=%d new=%d", old.Misses, newInst.Misses)
	}
	// ~100 periods of 10ms: combined activations must cover them all
	// (with overlap during the parallel phase).
	total := old.Activations + newInst.Activations
	if total < 100 {
		t.Errorf("combined activations = %d, want ≥ 100 (no service gap)", total)
	}
}

// TestStagedUpdateOldGoneCommits: an old instance that is already gone
// when phase 4 comes counts as stopped. The update commits, blind or
// verified, and leaves exactly one running instance of the logical app,
// the one InstanceName names.
func TestStagedUpdateOldGoneCommits(t *testing.T) {
	offers := []Offers{{Iface: "BrakeStatus", Opts: soa.OfferOpts{Network: "bb"}}}
	for _, c := range []struct {
		name   string
		verify func() error
	}{
		{"blind", nil},
		{"verified", func() error { return nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t)
			r.installV1(t)
			dones := 0
			var rep Report
			err := r.mgr.Staged("brake", brakeSpec(2), platform.Behavior{}, offers,
				100*sim.Millisecond, c.verify, func(rp Report) { rep = rp; dones++ })
			if err != nil {
				t.Fatal(err)
			}
			// The old instance disappears inside the startup window.
			r.k.At(sim.Time(ms(5)), func() {
				if err := r.node.Uninstall("brake"); err != nil {
					t.Error(err)
				}
			})
			r.k.RunUntil(sim.Time(ms(2000)))
			if dones != 1 || rep.RolledBack {
				t.Fatalf("done ran %d times, rolled back %v", dones, rep.RolledBack)
			}
			var running []string
			for _, name := range r.node.Apps() {
				if name == "brake" || strings.HasPrefix(name, "brake@") {
					if r.node.App(name).State != platform.StateRunning {
						t.Errorf("%s installed but %v", name, r.node.App(name).State)
					}
					running = append(running, name)
				}
			}
			if len(running) != 1 || running[0] != r.mgr.InstanceName("brake") {
				t.Errorf("instances %v, InstanceName %q", running, r.mgr.InstanceName("brake"))
			}
		})
	}
}

func TestStopRestartHasDowntime(t *testing.T) {
	r := newRig(t)
	r.installV1(t)
	var rep Report
	err := r.mgr.StopRestart("brake", brakeSpec(2), platform.Behavior{}, nil,
		func(rp Report) { rep = rp })
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunUntil(sim.Time(ms(500)))
	if rep.Downtime <= 0 {
		t.Errorf("stop-restart downtime = %v, want > 0", rep.Downtime)
	}
	// Startup cost model: ≥ StartupBase.
	if rep.Downtime < StartupBase {
		t.Errorf("downtime %v below startup base", rep.Downtime)
	}
	if inst, _ := r.p.FindApp("brake@2"); inst == nil || inst.State != platform.StateRunning {
		t.Error("new version not running")
	}
}

func TestStagedUpdateUnknownApp(t *testing.T) {
	r := newRig(t)
	if err := r.mgr.Staged("ghost", brakeSpec(2), platform.Behavior{}, nil, 0, nil, nil); err == nil {
		t.Error("update of unknown app accepted")
	}
}

func TestStagedUpdateSameVersion(t *testing.T) {
	r := newRig(t)
	r.installV1(t)
	r.mgr.Track("brake", "brake@2")
	if err := r.mgr.Staged("brake", brakeSpec(2), platform.Behavior{}, nil, 0, nil, nil); err == nil {
		t.Error("re-update to active version accepted")
	}
}

func TestStagedUpdateInsufficientMemory(t *testing.T) {
	// Parallel instantiation needs double memory; make it not fit.
	r := newRig(t)
	inst := r.installV1(t)
	_ = inst
	hog := model.App{Name: "hog", Kind: model.NonDeterministic, MemoryKB: 1800}
	if _, err := r.node.Install(hog, platform.Behavior{}); err != nil {
		t.Fatal(err)
	}
	err := r.mgr.Staged("brake", brakeSpec(2), platform.Behavior{}, nil, 0, nil, nil)
	if err == nil {
		t.Fatal("staged update accepted without memory headroom")
	}
	// Old version must still be running — staged updates fail safe.
	old, _ := r.p.FindApp("brake")
	if old == nil || old.State != platform.StateRunning {
		t.Error("old version lost after failed staged update")
	}
}

func TestOrchestratedPath(t *testing.T) {
	k := sim.NewKernel(1)
	var rep OrchestratedReport
	order := []string{}
	steps := []PathStep{
		{App: "sensor"}, {App: "fusion"}, {App: "planner"},
	}
	Orchestrated(k, steps, func(app string, done func(error)) {
		k.After(ms(50), func() { order = append(order, app); done(nil) })
	}, func(r OrchestratedReport) { rep = r })
	k.Run()
	if rep.StepsDone != 3 || rep.Aborted {
		t.Fatalf("rep = %+v", rep)
	}
	if rep.IncompatibleTime != 0 {
		t.Errorf("incompatible time = %v", rep.IncompatibleTime)
	}
	if len(order) != 3 || order[0] != "sensor" || order[2] != "planner" {
		t.Errorf("order = %v", order)
	}
	if rep.Elapsed != ms(150) {
		t.Errorf("elapsed = %v", rep.Elapsed)
	}
}

func TestOrchestratedAbortOnVerifyFailure(t *testing.T) {
	k := sim.NewKernel(1)
	var rep OrchestratedReport
	bad := errors.New("intermediate config unsafe")
	steps := []PathStep{
		{App: "a"},
		{App: "b", Verify: func() error { return bad }},
		{App: "c"},
	}
	count := 0
	Orchestrated(k, steps, func(app string, done func(error)) {
		count++
		k.After(ms(10), func() { done(nil) })
	}, func(r OrchestratedReport) { rep = r })
	k.Run()
	if !rep.Aborted || rep.StepsDone != 1 {
		t.Fatalf("rep = %+v", rep)
	}
	if count != 2 {
		t.Errorf("steps executed = %d, want 2 (c never runs)", count)
	}
	if !errors.Is(rep.AbortErr, bad) {
		t.Errorf("abort err = %v", rep.AbortErr)
	}
}

func TestCentralSwitchSkewWindows(t *testing.T) {
	deps := []Dependency{
		{Producer: "sensor", Consumer: "fusion"},
		{Producer: "fusion", Consumer: "planner"},
	}
	skew := map[string]sim.Duration{
		"sensor":  0,
		"fusion":  ms(3),
		"planner": -ms(2),
	}
	rep := CentralSwitch(sim.Time(ms(1000)), skew, deps)
	if rep.MaxIncompatible != ms(5) {
		t.Errorf("max window = %v, want 5ms", rep.MaxIncompatible)
	}
	if rep.TotalIncompatible != ms(8) {
		t.Errorf("total = %v, want 8ms", rep.TotalIncompatible)
	}
	if len(rep.EdgeWindows) != 2 {
		t.Errorf("windows = %v", rep.EdgeWindows)
	}
	// Perfect clocks → no incompatibility.
	perfect := CentralSwitch(sim.Time(ms(1000)), map[string]sim.Duration{}, deps)
	if perfect.TotalIncompatible != 0 {
		t.Errorf("zero-skew total = %v", perfect.TotalIncompatible)
	}
}

// Each way an update ends traces one "update" line on the node's
// kernel, in the text the update manager gives each outcome.
func TestUpdateLinesTraced(t *testing.T) {
	offers := []Offers{{Iface: "BrakeStatus", Opts: soa.OfferOpts{Network: "bb"}}}
	soakFail := errors.New("new version misbehaves in soak")
	for _, c := range []struct {
		name string
		run  func(r *rig) error
		want string
	}{
		{"stop-restart", func(r *rig) error {
			return r.mgr.StopRestart("brake", brakeSpec(2), platform.Behavior{}, offers, nil)
		}, "stop-restart brake v1→v2, downtime 21280us"},
		{"staged", func(r *rig) error {
			return r.mgr.Staged("brake", brakeSpec(2), platform.Behavior{}, offers, 0, nil, nil)
		}, "staged brake v1→v2 complete"},
		{"verified", func(r *rig) error {
			return r.mgr.Staged("brake", brakeSpec(2), platform.Behavior{}, offers,
				100*sim.Millisecond, func() error { return nil }, nil)
		}, "verified staged brake v1→v2"},
		{"rolled back", func(r *rig) error {
			return r.mgr.Staged("brake", brakeSpec(2), platform.Behavior{}, offers,
				100*sim.Millisecond, func() error { return soakFail }, nil)
		}, "rolled back brake v1→v2: new version misbehaves in soak"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t)
			o := obs.New(r.k)
			r.k.SetObserver(o)
			r.installV1(t)
			if err := c.run(r); err != nil {
				t.Fatal(err)
			}
			r.k.RunUntil(sim.Time(ms(2000)))
			var got []string
			for _, rec := range obstest.Records(t, o.T) {
				if rec.Cat == "update" {
					got = append(got, rec.Name)
				}
			}
			if len(got) != 1 || got[0] != c.want {
				t.Errorf("update lines %q, want [%q]", got, c.want)
			}
		})
	}
}
