package platform

import (
	"fmt"
	"strings"
	"testing"

	"dynaplat/internal/model"
	"dynaplat/internal/obs"
	"dynaplat/internal/obs/obstest"
	"dynaplat/internal/sim"
)

func ms(n int64) sim.Duration { return sim.Duration(n) * sim.Millisecond }

// rtosECU is a 100 MHz reference-clock RTOS ECU (so WCETs need no mental
// scaling in tests).
func rtosECU(name string) model.ECU {
	return model.ECU{Name: name, CPUMHz: model.ReferenceMHz, MemoryKB: 1024,
		HasMMU: true, OS: model.OSRTOS}
}

func daApp(name string, period, wcet sim.Duration) model.App {
	return model.App{Name: name, Kind: model.Deterministic, ASIL: model.ASILD,
		Period: period, WCET: wcet, Deadline: period, MemoryKB: 64}
}

func ndaApp(name string) model.App {
	return model.App{Name: name, Kind: model.NonDeterministic, MemoryKB: 64}
}

func TestInstallStartDA(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1)/4)
	inst, err := n.Install(daApp("brake", ms(10), ms(2)), Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.State != StateInstalled {
		t.Errorf("state = %v", inst.State)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(100 * ms(1)))
	if inst.Activations != 10 {
		t.Errorf("activations = %d, want 10", inst.Activations)
	}
	if inst.Misses != 0 {
		t.Errorf("misses = %d", inst.Misses)
	}
	// Sole task: every job runs immediately in its slot at offset 0.
	if lag := inst.StartLag.Max(); lag != 0 {
		t.Errorf("start lag = %v, want 0", lag)
	}
	if resp := inst.Response.MaxDuration(); resp != ms(2) {
		t.Errorf("response = %v, want 2ms", resp)
	}
}

// TestDALongRunAllocFree counts every allocation while a warm node runs
// a DA app for 8192 periods: releasing, executing and recording a job
// allocates nothing, however long the run.
func TestDALongRunAllocFree(t *testing.T) {
	const periods = 8192
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1)/4)
	inst, err := n.Install(daApp("brake", ms(10), ms(2)), Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(64 * ms(10)))
	before := inst.Activations
	a := testing.AllocsPerRun(1, func() {
		k.RunUntil(k.Now().Add(periods * ms(10)))
	})
	if a != 0 {
		t.Errorf("%d warm DA periods: %v allocs, want 0", periods, a)
	}
	if got := inst.Activations - before; got != 2*periods {
		t.Errorf("activations = %d, want %d", got, 2*periods)
	}
}

func TestDAJitterBoundedAcrossJobs(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1)/4)
	a, _ := n.Install(daApp("a", ms(10), ms(2)), Behavior{})
	b, _ := n.Install(daApp("b", ms(5), ms(1)), Behavior{})
	a.Start()
	b.Start()
	k.RunUntil(sim.Time(200 * ms(1)))
	if a.Misses+b.Misses != 0 {
		t.Fatalf("misses a=%d b=%d", a.Misses, b.Misses)
	}
	// Start lag must be constant per job phase — since both tasks repeat
	// with the hyperperiod, jitter (max-min of start lag) stays small.
	if j := a.StartLag.Jitter(); j > ms(2) {
		t.Errorf("a start jitter = %v", j)
	}
}

func TestInstallErrors(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, 0)
	if _, err := n.Install(daApp("x", ms(10), ms(2)), Behavior{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Install(daApp("x", ms(10), ms(2)), Behavior{}); err == nil {
		t.Error("duplicate install succeeded")
	}
	// Admission failure: would exceed utilization 1.
	if _, err := n.Install(daApp("hog", ms(10), ms(9)), Behavior{}); err == nil {
		t.Error("over-utilization install succeeded")
	}
	// Memory must have been rolled back for the failed install.
	if n.Memory().Domain("hog") != nil {
		t.Error("failed install leaked a memory domain")
	}
	// Memory failure.
	big := ndaApp("big")
	big.MemoryKB = 4096
	if _, err := n.Install(big, Behavior{}); err == nil {
		t.Error("over-memory install succeeded")
	}
	posix := model.ECU{Name: "head", CPUMHz: 1000, MemoryKB: 1024, OS: model.OSPOSIX}
	np := NewNode(k, posix, ModeIsolated, 0)
	if _, err := np.Install(daApp("da", ms(10), ms(1)), Behavior{}); err == nil {
		t.Error("DA on POSIX node succeeded (Section 1.1 requires an RTOS)")
	}
}

func TestUninstallFreesScheduleAndMemory(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1))
	inst, _ := n.Install(daApp("a", ms(10), ms(8)), Behavior{})
	inst.Start()
	k.RunUntil(sim.Time(ms(25)))
	if err := n.Uninstall("a"); err != nil {
		t.Fatal(err)
	}
	if n.App("a") != nil || n.Memory().Domain("a") != nil {
		t.Error("uninstall left residue")
	}
	// The freed capacity must be reusable.
	if _, err := n.Install(daApp("b", ms(10), ms(8)), Behavior{}); err != nil {
		t.Errorf("reinstall after uninstall failed: %v", err)
	}
	if err := n.Uninstall("ghost"); err == nil {
		t.Error("uninstalling unknown app succeeded")
	}
}

func TestNDAJobsRunInGaps(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1))
	da, _ := n.Install(daApp("ctl", ms(10), ms(5)), Behavior{})
	nda, _ := n.Install(ndaApp("infot"), Behavior{})
	da.Start()
	nda.Start()
	doneAt := sim.Time(0)
	// 8ms of NDA work: the first 10ms period has only 5ms of gap, so the
	// job must finish during the second period: 5ms gap used in period 1,
	// 3ms more in period 2 → completes at 10+5+3 = 18ms.
	if err := nda.Submit(ms(8), func() { doneAt = k.Now() }); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(ms(40)))
	if doneAt != sim.Time(ms(18)) {
		t.Errorf("NDA job done at %v, want 18ms", doneAt)
	}
	if da.Misses != 0 {
		t.Errorf("DA missed %d deadlines under NDA load", da.Misses)
	}
}

func TestIsolationUnderNDAOverload(t *testing.T) {
	// Figure 2's core property: in isolated mode the DA never misses no
	// matter how much NDA work floods in; in shared mode it does.
	run := func(mode Mode) (misses int64, activations int64) {
		k := sim.NewKernel(7)
		n := NewNode(k, rtosECU("cpm"), mode, ms(1)/2)
		da, _ := n.Install(daApp("ctl", ms(10), ms(3)), Behavior{})
		nda, _ := n.Install(ndaApp("flood"), Behavior{})
		da.Start()
		nda.Start()
		// Continuous oversized NDA jobs (each 25ms — longer than the DA
		// period) keep the CPU saturated.
		var pump func()
		pump = func() { nda.Submit(ms(25), pump) }
		pump()
		k.RunUntil(sim.Time(500 * ms(1)))
		return da.Misses, da.Activations
	}
	iMiss, iAct := run(ModeIsolated)
	sMiss, sAct := run(ModeShared)
	if iAct == 0 || sAct == 0 {
		t.Fatalf("no activations: iso=%d shared=%d", iAct, sAct)
	}
	if iMiss != 0 {
		t.Errorf("isolated mode missed %d/%d deadlines", iMiss, iAct)
	}
	if sMiss == 0 {
		t.Errorf("shared mode missed no deadlines under overload — baseline broken")
	}
}

func TestNDAStarvationDetected(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1))
	da, _ := n.Install(daApp("full", ms(10), ms(10)), Behavior{})
	nda, _ := n.Install(ndaApp("bg"), Behavior{})
	da.Start()
	nda.Start()
	ran := false
	nda.Submit(ms(1), func() { ran = true })
	k.RunUntil(sim.Time(ms(50)))
	if ran {
		t.Error("NDA job ran despite a 100% loaded table")
	}
	if n.Diag().CountKind(FaultStarvation) != 1 {
		t.Error("starvation fault not recorded")
	}
}

func TestSubmitValidation(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, 0)
	da, _ := n.Install(daApp("d", ms(10), ms(1)), Behavior{})
	nda, _ := n.Install(ndaApp("n"), Behavior{})
	da.Start()
	if err := da.Submit(ms(1), nil); err == nil {
		t.Error("Submit on deterministic app succeeded")
	}
	if err := nda.Submit(ms(1), nil); err == nil {
		t.Error("Submit on stopped app succeeded")
	}
	nda.Start()
	if err := nda.Submit(0, nil); err == nil {
		t.Error("Submit with zero exec succeeded")
	}
}

func TestStopCancelsReleases(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1))
	da, _ := n.Install(daApp("d", ms(10), ms(1)), Behavior{})
	da.Start()
	k.RunUntil(sim.Time(ms(35)))
	da.Stop()
	acts := da.Activations
	k.RunUntil(sim.Time(ms(100)))
	if da.Activations != acts {
		t.Errorf("activations grew after Stop: %d → %d", acts, da.Activations)
	}
	// Restart resumes on the period grid.
	da.Start()
	k.RunUntil(sim.Time(ms(150)))
	if da.Activations <= acts {
		t.Error("no activations after restart")
	}
}

func TestExecTimeVariation(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1)/4)
	inst, _ := n.Install(daApp("v", ms(10), ms(4)), Behavior{
		ExecTime: func(r *sim.RNG) sim.Duration { return r.DurationRange(ms(1), ms(3)) },
	})
	inst.Start()
	k.RunUntil(sim.Time(500 * ms(1)))
	if inst.Misses != 0 {
		t.Errorf("misses = %d", inst.Misses)
	}
	// Responses must vary with execution time but never exceed WCET path.
	if inst.Response.Min() == inst.Response.Max() {
		t.Error("response shows no variation despite variable exec time")
	}
	if max := inst.Response.MaxDuration(); max > ms(4) {
		t.Errorf("max response %v exceeds WCET-slot bound", max)
	}
}

func TestOnActivateAndCompletionHook(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1))
	var jobs []int64
	var completions []Completion
	n.OnComplete(func(c Completion) { completions = append(completions, c) })
	inst, _ := n.Install(daApp("d", ms(10), ms(1)), Behavior{
		OnActivate: func(job int64) { jobs = append(jobs, job) },
	})
	inst.Start()
	k.RunUntil(sim.Time(ms(35)))
	if len(jobs) != 4 || jobs[0] != 0 || jobs[3] != 3 {
		t.Errorf("jobs = %v", jobs)
	}
	if len(completions) != 4 || completions[0].App != "d" || completions[0].Missed {
		t.Errorf("completions = %+v", completions)
	}
}

func TestMemoryDomains(t *testing.T) {
	m := NewMemoryManager(1024, true)
	if err := m.NewDomain("a", 512); err != nil {
		t.Fatal(err)
	}
	if err := m.NewDomain("b", 256); err != nil {
		t.Fatal(err)
	}
	if err := m.NewDomain("c", 512); err == nil {
		t.Error("overcommit accepted")
	}
	if err := m.NewDomain("a", 1); err == nil {
		t.Error("duplicate domain accepted")
	}
	if m.SameProcess("a", "b") {
		t.Error("MMU ECU should default to separate processes")
	}
	if m.ProcessCount() != 2 {
		t.Errorf("processes = %d", m.ProcessCount())
	}
	if err := m.Use("a", 500); err != nil {
		t.Fatal(err)
	}
	if err := m.Use("a", 100); err == nil {
		t.Error("budget overrun accepted")
	}
	m.Release("a", 200)
	if m.Domain("a").UsedKB != 300 {
		t.Errorf("used = %d", m.Domain("a").UsedKB)
	}
}

func TestWildWriteContainment(t *testing.T) {
	// With MMU-backed separation a stray write stays in the faulty app.
	m := NewMemoryManager(1024, true)
	m.NewDomain("bad", 64)
	m.NewDomain("good", 64)
	hit := m.InjectWildWrite("bad")
	if len(hit) != 1 || hit[0] != "bad" {
		t.Errorf("separated wild write hit %v", hit)
	}
	if m.Domain("good").Corrupted {
		t.Error("separated domain corrupted")
	}
	// Colocated apps share the blast radius.
	m2 := NewMemoryManager(1024, true)
	m2.NewDomain("bad", 64)
	m2.NewDomain("roommate", 64)
	m2.NewDomain("other", 64)
	m2.Colocate("bad", "roommate")
	hit2 := m2.InjectWildWrite("bad")
	if len(hit2) != 2 {
		t.Errorf("colocated wild write hit %v", hit2)
	}
	if m2.Domain("other").Corrupted {
		t.Error("separate process corrupted")
	}
	// No MMU: everything is one process.
	m3 := NewMemoryManager(1024, false)
	m3.NewDomain("bad", 64)
	m3.NewDomain("victim", 64)
	hit3 := m3.InjectWildWrite("bad")
	if len(hit3) != 2 {
		t.Errorf("unprotected wild write hit %v", hit3)
	}
}

func TestResourcePriority(t *testing.T) {
	k := sim.NewKernel(1)
	r := NewResource(k, "crypto")
	var order []string
	grab := func(name string, urgent bool) {
		fn := func() { order = append(order, name) }
		if urgent {
			r.AcquireUrgent(ms(1), fn)
		} else {
			r.AcquireBulk(ms(1), fn)
		}
	}
	k.At(0, func() {
		grab("bulk1", false) // starts immediately (resource idle)
		grab("bulk2", false)
		grab("urgent", true) // must overtake bulk2
	})
	k.Run()
	if len(order) != 3 || order[0] != "bulk1" || order[1] != "urgent" || order[2] != "bulk2" {
		t.Errorf("order = %v", order)
	}
	if r.Served != 3 {
		t.Errorf("served = %d", r.Served)
	}
	if r.WaitHigh.Max() > float64(ms(1)) {
		t.Errorf("urgent wait = %v, bounded by one hold time", r.WaitHigh.Max())
	}
}

// Every node event (install, start, a mode shed and resume, hang,
// slowdown, crash, restore, stop and uninstall) reaches the kernel's
// observer as a kernel line in its category, at the time it happened.
func TestNodeLinesTraced(t *testing.T) {
	k := (&obs.Env{Observe: true}).Kernel("lines", 1)
	p := New(k, nil)
	node, err := p.AddNode(rtosECU("cpm"), ModeIsolated, ms(1)/2)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []model.App{daApp("brake", ms(10), ms(1)), ndaApp("media")} {
		inst, err := node.Install(app, Behavior{})
		if err != nil {
			t.Fatal(err)
		}
		inst.Start()
	}
	m := NewModeManager(p, DefaultModes())
	k.RunUntil(sim.Time(ms(10)))
	m.Escalate("fault")
	m.Relax("clear")
	node.SetHung(true)
	node.SetHung(false)
	node.SetSlowdown(2.5)
	node.SetSlowdown(1)
	node.Restore(node.Crash())
	node.App("brake").Stop()
	if err := node.Uninstall("media"); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"platform: installed brake v0 (da, D) @0s",
		"platform: started brake @0s",
		"platform: installed media v0 (nda, QM) @0s",
		"platform: started media @0s",
		"platform: stopped media @10ms",
		"mode: media stopped entering degraded @10ms",
		"platform: started media @10ms",
		"mode: media resumed entering normal @10ms",
		"fault: node cpm hung @10ms",
		"fault: node cpm unhung @10ms",
		"fault: node cpm slowdown x2.5 @10ms",
		"fault: node cpm slowdown cleared @10ms",
		"platform: stopped brake @10ms",
		"platform: stopped media @10ms",
		"fault: node cpm crashed (2 apps stopped) @10ms",
		"platform: started brake @10ms",
		"platform: started media @10ms",
		"fault: node cpm restored (2 apps restarted) @10ms",
		"platform: stopped brake @10ms",
		"platform: stopped media @10ms",
		"platform: uninstalled media @10ms",
	}
	var got []string
	for _, r := range obstest.Records(t, obs.Of(k).T) {
		if r.Track == "kernel" {
			got = append(got, fmt.Sprintf("%s: %s @%v", r.Cat, r.Name, r.TS))
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("traced lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// A warm Stop/Start cycle of an installed DA on an unobserved kernel
// allocates nothing: the node's lines cost nothing when not traced.
func TestStopStartAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1)/4)
	inst, err := n.Install(daApp("brake", ms(10), ms(2)), Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		inst.Stop()
		if err := inst.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("Stop/Start cycle: %v allocs, want 0", a)
	}
}

func TestPersistence(t *testing.T) {
	p := NewPersistenceService()
	p.Put("app", "cfg", []byte("v1"))
	v, ok := p.Get("app", "cfg")
	if !ok || string(v) != "v1" {
		t.Errorf("get = %q %v", v, ok)
	}
	// Mutating the returned slice must not affect the store.
	v[0] = 'X'
	v2, _ := p.Get("app", "cfg")
	if string(v2) != "v1" {
		t.Error("Get returned aliased storage")
	}
	if _, ok := p.Get("app", "ghost"); ok {
		t.Error("ghost key found")
	}
	p.Put("app", "a", nil)
	if keys := p.Keys("app"); len(keys) != 2 || keys[0] != "a" {
		t.Errorf("keys = %v", keys)
	}
	n := p.CopyAll("app", "app2")
	if n != 2 {
		t.Errorf("copied = %d", n)
	}
	if v, ok := p.Get("app2", "cfg"); !ok || string(v) != "v1" {
		t.Error("CopyAll missed cfg")
	}
	p.Delete("app", "cfg")
	if _, ok := p.Get("app", "cfg"); ok {
		t.Error("delete failed")
	}
}

func TestDiagnosis(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDiagnosisService(k)
	var uplinked []Fault
	d.SetUplink(func(f Fault) { uplinked = append(uplinked, f) })
	d.RecordFault(Fault{App: "a", Kind: FaultDeadlineMiss})
	d.RecordFault(Fault{App: "b", Kind: FaultMemoryBudget})
	d.RecordFault(Fault{App: "a", Kind: FaultDeadlineMiss})
	if len(d.Faults()) != 3 || len(uplinked) != 3 {
		t.Errorf("faults = %d uplinked = %d", len(d.Faults()), len(uplinked))
	}
	if len(d.FaultsOf("a")) != 2 {
		t.Errorf("FaultsOf(a) = %d", len(d.FaultsOf("a")))
	}
	if d.CountKind(FaultDeadlineMiss) != 2 {
		t.Errorf("CountKind = %d", d.CountKind(FaultDeadlineMiss))
	}
}

func TestSharedModeBoundedInversion(t *testing.T) {
	// In shared mode a DA release waits for at most the running NDA job.
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeShared, 0)
	da, _ := n.Install(daApp("d", ms(20), ms(2)), Behavior{})
	nda, _ := n.Install(ndaApp("bg"), Behavior{})
	da.Start() // release at t=0... but NDA job gets in first via Submit below
	nda.Start()
	nda.Submit(ms(5), nil)
	k.RunUntil(sim.Time(ms(100)))
	// First DA job blocked by up to 5ms NDA job; with 20ms deadline it
	// still completes.
	if da.Misses != 0 {
		t.Errorf("misses = %d", da.Misses)
	}
	if da.Response.Max() <= float64(ms(2)) {
		t.Error("expected visible blocking by the NDA job in shared mode")
	}
}
