package experiments

import (
	"fmt"

	"dynaplat/internal/model"
	"dynaplat/internal/obs"
	"dynaplat/internal/platform"
	"dynaplat/internal/safety/update"
	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/tsn"
	"dynaplat/internal/workload"
)

func init() {
	register("E3", runE3)
	register("E5", runE5)
	register("E6", runE6)
}

// E3 — Section 3.1 "CPU": generating a schedule at runtime is expensive
// on an ECU; the backend (cloud) does it fast, and incremental synthesis
// avoids disturbing existing slots.
func runE3(_ *obs.Env) *Table {
	t := &Table{
		ID: "E3", Title: "Schedule synthesis: on-ECU vs backend, incremental vs full",
		Source:  "§3.1 CPU, [21]",
		Columns: []string{"tasks", "ops", "t@200MHz-ECU", "t@10GHz-backend", "incr-admits", "moved-slots"},
		Expectation: "backend synthesis ≫ faster than ECU; incremental " +
			"admission preserves existing slots (0 moved) while feasible",
	}
	t.Holds = true
	for _, n := range []int{5, 10, 20, 40, 80} {
		rng := sim.NewRNG(uint64(n))
		tasks := workload.ControlTasks(rng, n, 0.7)
		tbl, err := sched.Synthesize(tasks, 250*sim.Microsecond)
		if err != nil {
			t.AddRow(itoa(int64(n)), "-", "-", "-", "infeasible", "-")
			continue
		}
		ecuT := sched.SynthesisTime(tbl.SynthesisOps, 200)
		backendT := sched.SynthesisTime(tbl.SynthesisOps, 10_000)
		// Incremental admission: admit the same set one by one.
		m := sched.NewManager(250 * sim.Microsecond)
		incr, moved := 0, 0
		for _, task := range tasks {
			res, err := m.Admit(task)
			if err != nil {
				continue
			}
			if res.Incremental {
				incr++
			}
			moved += res.MovedSlots
		}
		t.AddRow(itoa(int64(n)), itoa(tbl.SynthesisOps), ecuT.String(),
			backendT.String(), fmt.Sprintf("%d/%d", incr, n), itoa(int64(moved)))
		if backendT*10 > ecuT {
			t.Holds = false // backend must be ≥10x faster (it is 50x by clock)
		}
	}
	return t
}

// E5 — Section 3.2: the staged 4-phase update never interrupts the
// deterministic app; stop-update-restart leaves a service gap; staged
// costs double memory.
func runE5(env *obs.Env) *Table {
	t := &Table{
		ID: "E5", Title: "Runtime update: staged 4-phase vs stop-restart",
		Source:  "§3.2",
		Columns: []string{"strategy", "downtime", "covered-periods", "missed-deadlines", "peak-mem"},
		Expectation: "staged: zero downtime, full period coverage, ~2x memory; " +
			"stop-restart: downtime ≥ startup time, gap in coverage",
	}
	run := func(staged bool) (rep update.Report, covered int64, misses int64) {
		k := env.Kernel(fmt.Sprintf("E5/staged=%v", staged), 9)
		net := tsn.New(k, tsn.DefaultConfig("bb"))
		mw := soa.New(k, nil)
		mw.AddNetwork(net, 1400)
		p := platform.New(k, mw)
		node, _ := p.AddNode(model.ECU{Name: "cpm", CPUMHz: 100, MemoryKB: 2048,
			HasMMU: true, OS: model.OSRTOS}, platform.ModeIsolated, 250*sim.Microsecond)
		spec := model.App{Name: "brake", Kind: model.Deterministic, ASIL: model.ASILD,
			Period: 10 * sim.Millisecond, WCET: 2 * sim.Millisecond,
			Deadline: 10 * sim.Millisecond, MemoryKB: 256, Version: 1}
		inst, _ := node.Install(spec, platform.Behavior{})
		inst.Start()
		for i := 0; i < 20; i++ {
			node.Store().Put("brake", fmt.Sprintf("k%d", i), []byte("v"))
		}
		mgr := update.NewManager(p, mw)
		newSpec := spec
		newSpec.Version = 2
		var report update.Report
		k.At(sim.Time(500*sim.Millisecond), func() {
			var err error
			if staged {
				err = mgr.Staged("brake", newSpec, platform.Behavior{}, nil, 0, nil,
					func(r update.Report) { report = r })
			} else {
				err = mgr.StopRestart("brake", newSpec, platform.Behavior{}, nil,
					func(r update.Report) { report = r })
			}
			if err != nil {
				panic(err)
			}
		})
		k.RunUntil(sim.Time(2 * sim.Second))
		newInst, _ := p.FindApp("brake@2")
		covered = inst.Activations
		if newInst != nil {
			covered += newInst.Activations
			misses = inst.Misses + newInst.Misses
		}
		return report, covered, misses
	}

	sRep, sCov, sMiss := run(true)
	rRep, rCov, rMiss := run(false)
	t.AddRow("staged", sRep.Downtime.String(), itoa(sCov), itoa(sMiss),
		fmt.Sprintf("%dKB", sRep.PeakMemoryKB))
	t.AddRow("stop-restart", rRep.Downtime.String(), itoa(rCov), itoa(rMiss),
		fmt.Sprintf("%dKB", rRep.PeakMemoryKB))
	// 2s / 10ms = 200 periods; staged must cover ≥ that (overlap may add).
	t.Holds = sRep.Downtime == 0 && sCov >= 200 && sMiss == 0 &&
		rRep.Downtime >= update.StartupBase &&
		rCov < 200 &&
		sRep.PeakMemoryKB >= 2*rRep.PeakMemoryKB
	return t
}

// E6 — Section 3.2: orchestrated stepwise distributed update vs a
// synchronized central switch under clock skew.
func runE6(env *obs.Env) *Table {
	t := &Table{
		ID: "E6", Title: "Distributed update: orchestrated path vs central switch",
		Source:  "§3.2",
		Columns: []string{"strategy", "clock-skew", "steps", "incompatible-max", "incompatible-total"},
		Expectation: "orchestrated path has zero version-mismatch exposure at " +
			"any skew; central switch exposure grows linearly with skew",
	}
	deps := []update.Dependency{
		{Producer: "sensor", Consumer: "fusion"},
		{Producer: "fusion", Consumer: "planner"},
		{Producer: "planner", Consumer: "actuator"},
		{Producer: "sensor", Consumer: "logger"},
	}
	// Orchestrated: staged per-step updates — mismatch is structurally 0.
	k := env.Kernel("E6/orchestrated", 1)
	var orch update.OrchestratedReport
	steps := []update.PathStep{
		{App: "sensor"}, {App: "fusion"}, {App: "planner"}, {App: "actuator"}, {App: "logger"},
	}
	update.Orchestrated(k, steps, func(app string, done func(error)) {
		k.After(100*sim.Millisecond, func() { done(nil) })
	}, func(r update.OrchestratedReport) { orch = r })
	k.Run()
	t.AddRow("orchestrated", "any", itoa(int64(orch.StepsDone)),
		orch.IncompatibleTime.String(), orch.IncompatibleTime.String())

	t.Holds = orch.StepsDone == 5 && orch.IncompatibleTime == 0
	prev := sim.Duration(-1)
	for _, skew := range []sim.Duration{0, sim.Millisecond, 5 * sim.Millisecond, 20 * sim.Millisecond} {
		rng := sim.NewRNG(uint64(skew) + 5)
		sk := map[string]sim.Duration{}
		for _, app := range []string{"sensor", "fusion", "planner", "actuator", "logger"} {
			if skew > 0 {
				sk[app] = rng.DurationRange(-skew, skew)
			}
		}
		rep := update.CentralSwitch(sim.Time(sim.Second), sk, deps)
		t.AddRow("central-switch", skew.String(), "1",
			rep.MaxIncompatible.String(), rep.TotalIncompatible.String())
		if rep.TotalIncompatible < prev {
			t.Holds = false // exposure must not shrink as skew grows
		}
		prev = rep.TotalIncompatible
	}
	return t
}
