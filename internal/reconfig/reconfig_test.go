package reconfig

import (
	"fmt"
	"strings"
	"testing"

	"dynaplat/internal/admission"
	"dynaplat/internal/model"
	"dynaplat/internal/obs"
	"dynaplat/internal/obs/obstest"
	"dynaplat/internal/platform"
	"dynaplat/internal/safety/monitor"
	"dynaplat/internal/sim"
)

func msd(n int64) sim.Duration { return sim.Duration(n) * sim.Millisecond }

func testECU(name string) model.ECU {
	return model.ECU{Name: name, CPUMHz: 100, MemoryKB: 256, HasMMU: true, OS: model.OSRTOS}
}

func da(name string, asil model.ASIL, memKB int) model.App {
	return model.App{Name: name, Kind: model.Deterministic, ASIL: asil,
		Period: msd(10), WCET: msd(2), Deadline: msd(10), MemoryKB: memKB}
}

func nda(name string, asil model.ASIL, memKB int) model.App {
	return model.App{Name: name, Kind: model.NonDeterministic, ASIL: asil, MemoryKB: memKB}
}

type placed struct {
	app model.App
	ecu string
}

type rig struct {
	k    *sim.Kernel
	sys  *model.System
	p    *platform.Platform
	ctrl *admission.Controller
	orc  *Orchestrator
}

// newRig builds a three-ECU vehicle with the given deployment, watches
// every ECU and starts the orchestrator.
func newRig(t *testing.T, seed uint64, deployment []placed) *rig {
	t.Helper()
	return newRigOn(t, sim.NewKernel(seed), deployment)
}

// newRigOn builds the rig on k; an observed k observes the whole rig.
func newRigOn(t *testing.T, k *sim.Kernel, deployment []placed) *rig {
	t.Helper()
	sys := model.NewSystem("test-vehicle")
	p := platform.New(k, nil)
	for _, name := range []string{"ecuA", "ecuB", "ecuC"} {
		e := testECU(name)
		sys.ECUs = append(sys.ECUs, &e)
		if _, err := p.AddNode(e, platform.ModeIsolated, 250*sim.Microsecond); err != nil {
			t.Fatalf("AddNode(%s): %v", name, err)
		}
	}
	for _, pl := range deployment {
		a := pl.app
		sys.Apps = append(sys.Apps, &a)
		sys.Placement[a.Name] = pl.ecu
		inst, err := p.Node(pl.ecu).Install(a, platform.Behavior{})
		if err != nil {
			t.Fatalf("Install(%s on %s): %v", a.Name, pl.ecu, err)
		}
		if err := inst.Start(); err != nil {
			t.Fatalf("Start(%s): %v", a.Name, err)
		}
	}
	ctrl := admission.NewController(sys)
	orc := New(p, ctrl, Config{
		CheckPeriod:      sim.Millisecond,
		SilenceThreshold: msd(25),
		ReplanDelay:      msd(2),
		SettleTimeout:    msd(200),
	})
	if err := orc.Watch("ecuA", "ecuB", "ecuC"); err != nil {
		t.Fatalf("Watch: %v", err)
	}
	orc.Start()
	return &rig{k: k, sys: sys, p: p, ctrl: ctrl, orc: orc}
}

// standardDeployment: one ASIL-D DA per compute ECU plus an NDA.
func standardDeployment() []placed {
	return []placed{
		{da("da-brake", model.ASILD, 64), "ecuA"},
		{da("da-steer", model.ASILD, 64), "ecuB"},
		{nda("nda-maps", model.ASILA, 64), "ecuC"},
	}
}

// The base loop: a crashed ECU's deterministic app is detected by
// completion silence, re-placed through admission onto a surviving ECU,
// and resumes activating there; the recovery settles on the app's first
// completion at the new home.
func TestRecoveryMovesLostDA(t *testing.T) {
	r := newRig(t, 1, standardDeployment())
	var stopped []string
	r.k.At(sim.Time(msd(50)), func() { stopped = r.p.Node("ecuA").Crash() })
	r.k.RunUntil(sim.Time(msd(300)))
	_ = stopped

	if len(r.orc.Recoveries) != 1 {
		t.Fatalf("got %d recoveries, want 1: %+v", len(r.orc.Recoveries), r.orc.Recoveries)
	}
	rec := r.orc.Recoveries[0]
	if rec.ECU != "ecuA" || !strings.HasPrefix(rec.Reason, "silence") {
		t.Errorf("recovery = %+v", rec)
	}
	if !rec.Steady || rec.RolledBack || len(rec.Stranded) != 0 || len(rec.Sheds) != 0 {
		t.Fatalf("recovery state: %+v", rec)
	}
	if len(rec.Moves) != 1 || rec.Moves[0].App != "da-brake" || rec.Moves[0].To != "ecuB" {
		t.Fatalf("moves = %+v (first-fit should pick ecuB)", rec.Moves)
	}
	// Timeline: detect after the silence threshold, plan after the replan
	// delay, steady after the first completion on the new node.
	if rec.DetectedAt < sim.Time(msd(50)) || rec.PlannedAt != rec.DetectedAt.Add(msd(2)) {
		t.Errorf("timeline: detected=%v planned=%v", rec.DetectedAt, rec.PlannedAt)
	}
	if rec.SteadyAt <= rec.PlannedAt || rec.Duration() <= 0 {
		t.Errorf("steady=%v planned=%v", rec.SteadyAt, rec.PlannedAt)
	}
	// Model and platform agree on the new placement.
	if r.sys.Placement["da-brake"] != "ecuB" {
		t.Errorf("placement = %v", r.sys.Placement["da-brake"])
	}
	inst := r.p.Node("ecuB").App("da-brake")
	if inst == nil || inst.State != platform.StateRunning || inst.Activations == 0 {
		t.Fatalf("da-brake not running on ecuB: %+v", inst)
	}
	if r.p.Node("ecuA").App("da-brake") != nil {
		t.Error("da-brake still installed on the failed node")
	}
}

// shedDeployment leaves no direct capacity for a moved 64 KB app: every
// surviving ECU is memory-full, but ecuB carries a QM infotainment app
// the orchestrator may shed.
func shedDeployment() []placed {
	return []placed{
		{da("da-brake", model.ASILD, 64), "ecuA"},
		{da("da-steer", model.ASILD, 64), "ecuB"},
		{nda("nda-infot", model.QM, 160), "ecuB"},   // sheddable
		{nda("nda-maps", model.ASILA, 160), "ecuC"}, // with nda-video fills ecuC
		{nda("nda-video", model.ASILA, 64), "ecuC"},
	}
}

// When no surviving ECU has direct capacity, the orchestrator sheds the
// lowest-criticality NDA from the target, escalates the mode cascade,
// and — when the failed ECU returns — re-homes the moved app, restores
// the shed one and relaxes the mode again.
func TestShedEscalateRebalanceRelax(t *testing.T) {
	r := newRig(t, 2, shedDeployment())
	modes := platform.NewModeManager(r.p, platform.DefaultModes())
	r.orc.AttachModes(modes)

	var stopped []string
	r.k.At(sim.Time(msd(50)), func() { stopped = r.p.Node("ecuA").Crash() })
	r.k.RunUntil(sim.Time(msd(400)))

	if len(r.orc.Recoveries) != 1 {
		t.Fatalf("recoveries = %+v", r.orc.Recoveries)
	}
	rec := r.orc.Recoveries[0]
	if len(rec.Moves) != 1 || rec.Moves[0].To != "ecuB" {
		t.Fatalf("moves = %+v", rec.Moves)
	}
	if len(rec.Sheds) != 1 || rec.Sheds[0].App != "nda-infot" {
		t.Fatalf("sheds = %+v", rec.Sheds)
	}
	if r.orc.ShedCount() != 1 {
		t.Errorf("ShedCount = %d", r.orc.ShedCount())
	}
	// The shed app is gone from model and node; the mode escalated.
	if r.sys.App("nda-infot") != nil || r.p.Node("ecuB").App("nda-infot") != nil {
		t.Error("nda-infot not shed")
	}
	if modes.Current() != "degraded" {
		t.Errorf("mode = %q, want degraded", modes.Current())
	}

	// Repair: the failed ECU reboots and the vehicle re-balances.
	r.k.At(sim.Time(msd(400)), func() { r.p.Node("ecuA").Restore(stopped) })
	r.k.RunUntil(sim.Time(msd(700)))

	if len(r.orc.Rebalances) != 1 {
		t.Fatalf("rebalances = %+v", r.orc.Rebalances)
	}
	reb := r.orc.Rebalances[0]
	if len(reb.Rehomed) != 1 || reb.Rehomed[0].App != "da-brake" || reb.Rehomed[0].To != "ecuA" {
		t.Fatalf("rehomed = %+v", reb.Rehomed)
	}
	if len(reb.Restored) != 1 || reb.Restored[0] != "nda-infot" {
		t.Fatalf("restored = %+v", reb.Restored)
	}
	if r.orc.ShedCount() != 0 || len(r.orc.Failed()) != 0 {
		t.Errorf("outstanding: sheds=%d failed=%v", r.orc.ShedCount(), r.orc.Failed())
	}
	if modes.Current() != "normal" {
		t.Errorf("mode = %q, want normal after relax", modes.Current())
	}
	// Everyone back home and running.
	if r.sys.Placement["da-brake"] != "ecuA" || r.sys.Placement["nda-infot"] != "ecuB" {
		t.Errorf("placements: %v", r.sys.Placement)
	}
	if inst := r.p.Node("ecuA").App("da-brake"); inst == nil || inst.State != platform.StateRunning {
		t.Error("da-brake not running back on ecuA")
	}
	if inst := r.p.Node("ecuB").App("nda-infot"); inst == nil || inst.State != platform.StateRunning {
		t.Error("nda-infot not restored on ecuB")
	}
}

// strandDeployment leaves da-brake unplaceable: the survivors are full
// and nothing sheddable is below ASIL D in large enough pieces.
func strandDeployment() []placed {
	return []placed{
		{da("da-brake", model.ASILD, 200), "ecuA"},
		{da("da-steer", model.ASILD, 64), "ecuB"},
		{nda("nda-infot", model.QM, 32), "ecuB"},    // shedding 32 KB is not enough
		{nda("nda-maps", model.ASILD, 100), "ecuC"}, // ASIL D: never shed
	}
}

// An app that fits nowhere is stranded: it stays modeled (and installed,
// stopped) at its failed placement, and the node's repair revives it.
func TestStrandedAppRevivedOnRepair(t *testing.T) {
	r := newRig(t, 3, strandDeployment())
	var stopped []string
	r.k.At(sim.Time(msd(50)), func() { stopped = r.p.Node("ecuA").Crash() })
	r.k.RunUntil(sim.Time(msd(300)))

	rec := r.orc.Recoveries[0]
	if len(rec.Stranded) != 1 || rec.Stranded[0] != "da-brake" || len(rec.Moves) != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if r.orc.StrandedCount() != 1 {
		t.Errorf("StrandedCount = %d", r.orc.StrandedCount())
	}
	// Still modeled at the failed ECU, still installed there (stopped).
	if r.sys.Placement["da-brake"] != "ecuA" {
		t.Errorf("placement = %v", r.sys.Placement["da-brake"])
	}
	inst := r.p.Node("ecuA").App("da-brake")
	if inst == nil || inst.State == platform.StateRunning {
		t.Fatalf("stranded app should be installed and stopped: %+v", inst)
	}

	r.k.At(sim.Time(msd(300)), func() { r.p.Node("ecuA").Restore(stopped) })
	r.k.RunUntil(sim.Time(msd(500)))

	if r.orc.StrandedCount() != 0 {
		t.Errorf("StrandedCount after repair = %d", r.orc.StrandedCount())
	}
	if len(r.orc.Rebalances) != 1 || len(r.orc.Rebalances[0].Revived) != 1 {
		t.Fatalf("rebalances = %+v", r.orc.Rebalances)
	}
	if inst := r.p.Node("ecuA").App("da-brake"); inst == nil || inst.State != platform.StateRunning {
		t.Error("da-brake not revived on repair")
	}
}

// A physical install failure (model/platform drift: ghost apps occupy
// node memory the model does not know about) rolls the whole recovery
// back: the model is byte-identical to its pre-recovery state and the
// failed node keeps its app for the eventual repair.
func TestPhysicalFailureRollsBack(t *testing.T) {
	r := newRig(t, 4, standardDeployment())
	// Ghost apps: physically installed, invisible to the model.
	for _, ecu := range []string{"ecuB", "ecuC"} {
		inst, err := r.p.Node(ecu).Install(nda("ghost-"+ecu, model.QM, 150), platform.Behavior{})
		if err != nil {
			t.Fatalf("ghost install: %v", err)
		}
		if err := inst.Start(); err != nil {
			t.Fatalf("ghost start: %v", err)
		}
	}
	before := marshalModel(t, r.sys)

	var stopped []string
	r.k.At(sim.Time(msd(50)), func() { stopped = r.p.Node("ecuA").Crash() })
	r.k.RunUntil(sim.Time(msd(300)))
	_ = stopped

	if len(r.orc.Recoveries) != 1 {
		t.Fatalf("recoveries = %+v", r.orc.Recoveries)
	}
	rec := r.orc.Recoveries[0]
	if !rec.RolledBack {
		t.Fatalf("recovery not rolled back: %+v", rec)
	}
	if len(rec.Moves)+len(rec.Sheds)+len(rec.Stranded) != 0 {
		t.Errorf("rolled-back recovery kept records: %+v", rec)
	}
	if after := marshalModel(t, r.sys); after != before {
		t.Errorf("model changed across rollback:\n--- before\n%s\n--- after\n%s", before, after)
	}
	// The journal put da-brake back on the failed node (installed).
	if r.p.Node("ecuA").App("da-brake") == nil {
		t.Error("da-brake missing from the failed node after rollback")
	}
	if r.p.Node("ecuB").App("da-brake") != nil {
		t.Error("da-brake left behind on ecuB after rollback")
	}
}

// A whole-node alive-supervision outage (every supervised app silent in
// the same window) declares the ECU failed; a single silent app does
// not.
func TestAliveViolationsDeclareNodeFailure(t *testing.T) {
	run := func(hangNode bool) *rig {
		r := newRig(t, 5, []placed{
			{da("da-steer", model.ASILD, 64), "ecuB"},
			{nda("nda-maps", model.QM, 32), "ecuC"},
			{nda("nda-radio", model.QM, 32), "ecuC"},
		})
		sup := newAliveSupervision(r, "ecuC", msd(20))
		r.orc.AttachAlive("ecuC", sup.s)
		if hangNode {
			r.k.At(sim.Time(msd(100)), func() { sup.silenceAll() })
		} else {
			r.k.At(sim.Time(msd(100)), func() { sup.silence("nda-maps") })
		}
		r.k.RunUntil(sim.Time(msd(250)))
		return r
	}
	r := run(true)
	if got := r.orc.Failed(); len(got) != 1 || got[0] != "ecuC" {
		t.Fatalf("whole-node silence: failed = %v, want [ecuC]", got)
	}
	r = run(false)
	if got := r.orc.Failed(); len(got) != 0 {
		t.Fatalf("single-app silence must not fail the node: %v", got)
	}
}

// aliveRig drives an AliveSupervision with per-app report tickers that
// can be silenced individually.
type aliveRig struct {
	s      *monitor.AliveSupervision
	apps   []string
	silent map[string]bool
}

func newAliveSupervision(r *rig, ecu string, window sim.Duration) *aliveRig {
	node := r.p.Node(ecu)
	a := &aliveRig{s: monitor.NewAliveSupervision(node, window), silent: map[string]bool{}}
	for _, app := range node.Apps() {
		if err := a.s.Supervise(app, 1, 100); err != nil {
			panic(err)
		}
		a.apps = append(a.apps, app)
		app := app
		r.k.Every(r.k.Now().Add(msd(5)), msd(5), func() {
			if !a.silent[app] {
				a.s.Alive(app)
			}
		})
	}
	return a
}

func (a *aliveRig) silence(app string) { a.silent[app] = true }
func (a *aliveRig) silenceAll() {
	for _, app := range a.apps {
		a.silent[app] = true
	}
}

// Determinism: two identical runs of the full failure/repair lifecycle
// produce byte-identical recovery records; an observed run changes
// nothing either.
func TestRecoveryDeterministicAndObservationNeutral(t *testing.T) {
	run := func(observe bool) string {
		r := newRigOn(t, (&obs.Env{Observe: observe}).Kernel("rig", 6), shedDeployment())
		var stopped []string
		r.k.At(sim.Time(msd(50)), func() { stopped = r.p.Node("ecuA").Crash() })
		r.k.At(sim.Time(msd(400)), func() { r.p.Node("ecuA").Restore(stopped) })
		r.k.RunUntil(sim.Time(msd(700)))
		if observe && !recordsCategory(t, obs.Of(r.k), "reconfig") {
			t.Error("orchestrator on an observed kernel recorded nothing")
		}
		return renderRecords(r.orc)
	}
	a, b, c := run(false), run(false), run(true)
	if a != b {
		t.Errorf("two identical runs diverged:\n--- a\n%s\n--- b\n%s", a, b)
	}
	if a != c {
		t.Errorf("observation changed the recovery:\n--- plain\n%s\n--- observed\n%s", a, c)
	}
}

// recordsCategory reports whether o's trace holds a record of category
// cat.
func recordsCategory(t *testing.T, o *obs.Obs, cat string) bool {
	for _, r := range obstest.Records(t, o.T) {
		if r.Cat == cat {
			return true
		}
	}
	return false
}

// renderRecords serializes every public record with its virtual
// timestamps — the byte-identity oracle for determinism tests.
func renderRecords(o *Orchestrator) string {
	var b strings.Builder
	for _, rec := range o.Recoveries {
		fmt.Fprintf(&b, "recovery ecu=%s reason=%q detected=%v planned=%v steady=%v rolledback=%v aborted=%v\n",
			rec.ECU, rec.Reason, rec.DetectedAt, rec.PlannedAt, rec.SteadyAt, rec.RolledBack, rec.Aborted)
		for _, m := range rec.Moves {
			fmt.Fprintf(&b, "  move %s %s->%s\n", m.App, m.From, m.To)
		}
		for _, sh := range rec.Sheds {
			fmt.Fprintf(&b, "  shed %s on %s restored=%v\n", sh.App, sh.ECU, sh.Restored)
		}
		for _, st := range rec.Stranded {
			fmt.Fprintf(&b, "  stranded %s\n", st)
		}
	}
	for _, reb := range o.Rebalances {
		fmt.Fprintf(&b, "rebalance ecu=%s at=%v revived=%v placed=%v rehomed=%v restored=%v\n",
			reb.ECU, reb.At, reb.Revived, reb.Placed, reb.Rehomed, reb.Restored)
	}
	for _, s := range o.Signals {
		fmt.Fprintf(&b, "signal %v %s %s %q\n", s.At, s.ECU, s.Source, s.Detail)
	}
	return b.String()
}

func marshalModel(t *testing.T, sys *model.System) string {
	t.Helper()
	b, err := model.MarshalJSONSystem(sys)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}
