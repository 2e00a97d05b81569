package dynaplat

// Whole-lifecycle integration test: one vehicle goes through the entire
// story the paper tells — modeled, explored, deployed, run under mixed
// criticality, updated at runtime with verification, degraded after
// faults, and kept operating through an ECU failure. Every subsystem
// participates; the test asserts the cross-cutting invariants.

import (
	"testing"

	"dynaplat/internal/dse"
	"dynaplat/internal/model"
	"dynaplat/internal/platform"
	"dynaplat/internal/safety/monitor"
	"dynaplat/internal/safety/redundancy"
)

const lifecycleDSL = `
system Lifecycle
ecu CPM1 cpu=400MHz mem=8MB mmu crypto os=rtos cost=40
ecu CPM2 cpu=400MHz mem=8MB mmu os=rtos cost=40
ecu Head cpu=1GHz mem=128MB mmu os=posix cost=30
network Backbone type=ethernet rate=100Mbps attach=CPM1,CPM2,Head

app Brake   kind=da  asil=D period=10ms wcet=2ms deadline=10ms jitter=2ms mem=256KB candidates=CPM1
app Lane    kind=da  asil=C period=20ms wcet=5ms deadline=20ms mem=512KB candidates=CPM1,CPM2
app Wiper   kind=da  asil=B period=50ms wcet=4ms mem=64KB candidates=CPM1,CPM2
app Media   kind=nda asil=QM mem=16MB candidates=Head

iface BrakeStatus owner=Brake paradigm=event payload=16B period=10ms latency=9ms net=Backbone
bind Media -> BrakeStatus
bind Lane  -> BrakeStatus
`

func TestVehicleLifecycle(t *testing.T) {
	// --- Phase 1: model → DSE placement (§2.2, §2.3).
	sys, err := ParseModel(lifecycleDSL)
	if err != nil {
		t.Fatal(err)
	}
	res := dse.Greedy(sys, dse.DefaultWeights())
	if !res.Feasible {
		t.Fatal("DSE found no feasible placement")
	}
	for app, ecu := range res.Placement {
		sys.Placement[app] = ecu
	}
	if findings, ok := ValidateModel(sys); !ok {
		t.Fatalf("placed model invalid: %v", findings)
	}

	// --- Phase 2: deploy and run under infotainment pressure (Fig. 2).
	s, err := FromModel(sys, Options{Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	brakeEp, _ := s.Endpoint("Brake")
	s.App("Brake").Behavior.OnActivate = func(job int64) {
		brakeEp.Publish("BrakeStatus", 16, job)
	}
	statusRx := 0
	mediaEp, _ := s.Endpoint("Media")
	if err := mediaEp.Subscribe("BrakeStatus", func(Event) { statusRx++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.StartAll(); err != nil {
		t.Fatal(err)
	}
	var pump func()
	pump = func() { s.App("Media").Submit(20*Millisecond, pump) }
	pump()

	// Runtime monitoring on the brake's node (§3.4).
	brakeNode := s.Node(sys.Placement["Brake"])
	mon := monitor.New(brakeNode, monitor.DefaultConfig())
	if err := mon.Watch("Brake"); err != nil {
		t.Fatal(err)
	}

	s.Run(2 * Second)
	if got := s.App("Brake").Activations; got != 200 {
		t.Fatalf("brake activations = %d, want 200", got)
	}
	if s.App("Brake").Misses != 0 {
		t.Fatal("brake missed deadlines under infotainment load")
	}
	if statusRx < 190 {
		t.Fatalf("status events = %d", statusRx)
	}

	// --- Phase 3: verified staged update of the brake (§3.2).
	mgr := NewUpdateManager(s)
	newSpec := s.App("Brake").Spec
	newSpec.Version = 2
	updated := false
	err = mgr.Staged("Brake", newSpec, Behavior{
		OnActivate: func(job int64) { brakeEp.Publish("BrakeStatus", 16, job) },
	}, []UpdateOffers{{Iface: "BrakeStatus", Opts: OfferOpts{Network: "Backbone"}}},
		100*Millisecond,
		func() error { return nil },
		func(r UpdateReport) { updated = !r.RolledBack })
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1 * Second)
	if !updated {
		t.Fatal("staged update did not complete")
	}
	brake2 := s.App("Brake@2")
	if brake2 == nil || brake2.State != platform.StateRunning {
		t.Fatal("updated brake not running")
	}
	if brake2.Misses != 0 {
		t.Fatal("updated brake missing deadlines")
	}

	// --- Phase 4: replicate a steering function and survive an ECU
	// failure (§3.3).
	red := redundancy.NewManager(s.Platform)
	steer := model.App{Name: "Steer", Kind: model.Deterministic, ASIL: model.ASILD,
		Period: 10 * Millisecond, WCET: Millisecond, Deadline: 10 * Millisecond,
		MemoryKB: 128}
	// Master replica on CPM2 so that killing CPM2 exercises failover
	// without taking the (unreplicated) brake on CPM1 down with it.
	grp, err := red.Replicate(steer, []string{"CPM2", "CPM1"}, Behavior{},
		redundancy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := grp.Start(); err != nil {
		t.Fatal(err)
	}
	s.Run(500 * Millisecond)
	red.FailECU("CPM2")
	s.Run(1 * Second)
	if len(grp.Failovers) != 1 {
		t.Fatalf("failovers = %d", len(grp.Failovers))
	}
	outputsBefore := grp.Outputs
	s.Run(500 * Millisecond)
	if grp.Outputs <= outputsBefore {
		t.Fatal("steering dead after failover")
	}

	// --- Phase 5: faults escalate the operating mode; QM load is shed
	// (§3.3 safe-state handling). Media may live on the failed ECU's
	// platform or the head unit; escalate and confirm shedding.
	mm := platform.NewModeManager(s.Platform, platform.DefaultModes())
	mm.Escalate("post-failure load shedding")
	if mm.Current() != "degraded" {
		t.Fatalf("mode = %s", mm.Current())
	}
	media := s.App("Media")
	if media.State != platform.StateStopped {
		t.Fatal("QM app still running in degraded mode")
	}
	// The updated ASIL-D brake keeps running through all of it.
	if brake2.State != platform.StateRunning {
		t.Fatal("brake stopped by degradation")
	}
	missesBefore := brake2.Misses
	s.Run(1 * Second)
	if brake2.Misses != missesBefore {
		t.Fatal("brake degraded after mode change")
	}

	// Monitoring collected a certification record over the whole run.
	if rec, err := mon.Certify("Brake@2"); err == nil {
		if rec.Activations == 0 {
			t.Error("certification record empty")
		}
	}
}
