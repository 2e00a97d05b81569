package experiments

import (
	"fmt"

	"dynaplat/internal/admission"
	"dynaplat/internal/faults"
	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/obs"
	"dynaplat/internal/platform"
	"dynaplat/internal/reconfig"
	"dynaplat/internal/safety/redundancy"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/vehicle"
)

func init() {
	register("E22", runE22)
}

// E22 — §3.3/§3.4/§5: self-healing recovery-time sweep. Three 500 Hz
// ASIL-D deterministic functions run on a four-ECU compute cluster under
// a seeded ECU fault campaign (crash/hang/reboot), in four recovery
// configurations:
//
//   - none:        campaign repair only (a crashed function returns when
//                  its ECU reboots)
//   - redundancy:  one function replicated master/slave with heartbeat
//                  failover (the paper's static-redundancy baseline)
//   - reconfig:    the self-healing orchestrator — completion-silence
//                  detection, admission-checked re-placement, endpoint
//                  migration, shedding and re-homing
//   - both:        redundancy for one function, the orchestrator for the
//                  rest
//
// Availability is the fraction of function periods for which the sink
// consumer received that period's sample. The same campaign seed drives
// every configuration at a given fault level (the per-cell fault count
// column must be identical down each level), so the configurations face
// bit-identical fault schedules. Recovery time is the orchestrator's
// detect→steady span per recovery, measured by the campaign's OnInject /
// orchestrator record timeline — no trace scraping. The whole table is
// byte-identical per seed (TestE22Deterministic) and unchanged under
// full instrumentation (TestRunEnv).

const (
	e22Period  = 2 * sim.Millisecond
	e22Horizon = 6 * sim.Second
	e22Periods = int(int64(e22Horizon) / int64(e22Period))
)

// e22Level is one fault-intensity step.
type e22Level struct {
	name string
	mtbf sim.Duration // fleet-wide mean time between ECU faults; 0 = none
}

// e22Config is one recovery configuration.
type e22Config struct {
	name      string
	redundant bool // master/slave replication for one function
	reconfig  bool // the self-healing orchestrator for modeled apps
}

// e22Result aggregates one cell.
type e22Result struct {
	faults           int
	avail            float64
	recoveries       int
	rollbacks        int
	meanRec, maxRec  sim.Duration
	shed, rebalances int
	failovers        int
}

// e22Cell runs one cell of the sweep on a kernel from env, scope
// "E22/<level>/<config>". An observing env instruments the cell fully
// (kernel trace, SOA metrics, platform spans, orchestrator
// counters and detect→steady histograms); observation schedules no
// events and draws no randomness, so the observed result is
// bit-identical to the plain one.
func e22Cell(env *obs.Env, li int, lv e22Level, cfg e22Config) e22Result {
	k := env.Kernel("E22/"+lv.name+"/"+cfg.name, 0xE22<<4|uint64(li))
	// Three deterministic ASIL-D functions, one per compute ECU, each
	// publishing its period index to the sink every period. The endpoint
	// carries the app's name so the orchestrator can migrate it.
	das := []struct{ name, home string }{
		{"da-brake", "cpmA"}, {"da-steer", "cpmB"}, {"da-adas", "cpmC"},
	}
	// Best-effort NDAs fill the remaining capacity: with redundancy
	// active every ECU is memory-full, so a re-placed ASIL-D function
	// forces the orchestrator to shed lower-criticality load first
	// (graceful degradation under pressure).
	ndas := []struct {
		name string
		asil model.ASIL
		home string
	}{
		{"nda-video", model.ASILB, "cpmB"},
		{"nda-music", model.QM, "cpmC"},
		{"nda-infot", model.QM, "cpmD"},
	}
	computes := []string{"cpmA", "cpmB", "cpmC", "cpmD"}
	sys := backboneVehicle("e22-vehicle", 192, computes...)
	daSpec := func(name string) model.App {
		return model.App{Name: name, Kind: model.Deterministic, ASIL: model.ASILD,
			Period: e22Period, WCET: 400 * sim.Microsecond, Deadline: e22Period, MemoryKB: 96}
	}
	for _, d := range das {
		if !(cfg.redundant && d.name == "da-adas") {
			spec := daSpec(d.name)
			sys.Apps = append(sys.Apps, &spec)
			sys.Placement[d.name] = d.home
		}
	}
	for _, n := range ndas {
		sys.Apps = append(sys.Apps, &model.App{Name: n.name, Kind: model.NonDeterministic,
			ASIL: n.asil, MemoryKB: 96})
		sys.Placement[n.name] = n.home
	}
	v, err := vehicle.Build(k, sys, vehicle.Config{})
	if err != nil {
		panic(err)
	}
	mw, p := v.Middleware, v.Platform

	probes := make([]*vehicle.Probe, len(das))
	cons := mw.Endpoint("dash", "sink")
	var group *redundancy.Group
	replicaHomes := []string{"cpmC", "cpmA", "cpmD"}
	for i, d := range das {
		probe := vehicle.NewProbe(e22Period, e22Periods)
		probes[i] = probe
		iface := d.name + ".state"
		ep := mw.Endpoint(d.name, d.home)
		ep.Offer(iface, soa.OfferOpts{Network: "backbone", Class: network.ClassControl})
		publish := func() {
			if idx, ok := probe.Index(k.Now()); ok {
				ep.Publish(iface, 16, idx)
			}
		}
		if err := cons.Subscribe(iface, func(ev soa.Event) { probe.MarkEvent(ev) }); err != nil {
			panic(err)
		}

		if cfg.redundant && d.name == "da-adas" {
			// The statically redundant function: hot master/slave replicas
			// managed by the redundancy manager.
			rm := redundancy.NewManager(p)
			var g *redundancy.Group
			behavior := platform.Behavior{OnActivate: func(int64) {
				if _, node := p.FindApp(g.Master().Spec.Name); node != nil &&
					node.ECU().Name != ep.ECU() {
					ep.Migrate(node.ECU().Name)
				}
				publish()
			}}
			g, err := rm.Replicate(daSpec(d.name), replicaHomes, behavior,
				redundancy.Config{HeartbeatPeriod: e22Period, MissThreshold: 3,
					PromotionDelay: sim.Millisecond})
			if err != nil {
				panic(err)
			}
			if err := g.Start(); err != nil {
				panic(err)
			}
			group = g
			if cfg.reconfig {
				// The replicas join the admission model as *pinned* apps
				// (candidates = home only): the model then accounts for
				// the capacity static redundancy consumes, and the
				// orchestrator strands rather than moves them — the
				// redundancy manager keeps their lifecycle.
				for ri, home := range replicaHomes {
					rep := daSpec(d.name)
					rep.Name = fmt.Sprintf("%s/r%d", d.name, ri)
					rep.Candidates = []string{home}
					sys.Apps = append(sys.Apps, &rep)
					sys.Placement[rep.Name] = home
				}
			}
			continue
		}
		inst := p.Node(d.home).App(d.name)
		inst.Behavior = platform.Behavior{OnActivate: func(int64) { publish() }}
		if err := inst.Start(); err != nil {
			panic(err)
		}
	}

	for _, n := range ndas {
		if err := p.Node(n.home).App(n.name).Start(); err != nil {
			panic(err)
		}
	}

	// The self-healing orchestrator (reconfig / both configs).
	var orc *reconfig.Orchestrator
	if cfg.reconfig {
		ctrl := admission.NewController(sys)
		orc = reconfig.New(p, ctrl, reconfig.Config{
			CheckPeriod:      sim.Millisecond,
			SilenceThreshold: 10 * sim.Millisecond,
			ReplanDelay:      sim.Millisecond,
			SettleTimeout:    150 * sim.Millisecond,
		})
		orc.AttachModes(platform.NewModeManager(p, platform.DefaultModes()))
		if err := orc.Watch(computes...); err != nil {
			panic(err)
		}
		orc.Start()
	}

	// The seeded campaign: identical schedule for every configuration at
	// this level (its RNG derives from the spec seed alone). The OnInject
	// hook counts activations — the per-level fault columns must match
	// across configurations.
	var res e22Result
	if lv.mtbf > 0 {
		camp := faults.NewCampaign(k, faults.Spec{
			Seed:        0xE22<<8 | uint64(li),
			Horizon:     e22Horizon,
			MTBF:        lv.mtbf,
			RepairMean:  600 * sim.Millisecond,
			RebootDelay: 300 * sim.Millisecond,
			Weights:     faults.Weights{Crash: 0.6, Hang: 0.2, Reboot: 0.2},
		})
		for _, e := range computes {
			camp.AddTarget(e, p.Node(e))
		}
		camp.OnInject = func(faults.Injection) { res.faults++ }
		camp.Start()
	}

	k.RunUntil(sim.Time(e22Horizon + 2*sim.Second)) // repair + rebalance tail

	ok := 0
	for _, pr := range probes {
		ok += pr.Hits(0, e22Periods)
	}
	res.avail = float64(ok) / float64(len(das)*e22Periods)
	if group != nil {
		res.failovers = len(group.Failovers)
	}
	if orc != nil {
		var sum sim.Duration
		for _, rec := range orc.Recoveries {
			res.shed += len(rec.Sheds)
			if rec.RolledBack {
				res.rollbacks++
			}
			if rec.Aborted || rec.RolledBack || !rec.Steady {
				continue
			}
			res.recoveries++
			d := rec.Duration()
			sum += d
			if d > res.maxRec {
				res.maxRec = d
			}
		}
		if res.recoveries > 0 {
			res.meanRec = sum / sim.Duration(res.recoveries)
		}
		res.rebalances = len(orc.Rebalances)
	}
	return res
}

// e22Levels returns the fault-intensity sweep (fleet-wide MTBF).
func e22Levels() []e22Level {
	return []e22Level{
		{name: "0-none", mtbf: 0},
		{name: "1-low", mtbf: 3 * sim.Second},
		{name: "2-mid", mtbf: 1500 * sim.Millisecond},
		{name: "3-high", mtbf: 700 * sim.Millisecond},
	}
}

// e22Configs returns the recovery configurations.
func e22Configs() []e22Config {
	return []e22Config{
		{name: "none"},
		{name: "redundancy", redundant: true},
		{name: "reconfig", reconfig: true},
		{name: "both", redundant: true, reconfig: true},
	}
}

// e22ms renders a duration in milliseconds ("-" for none observed).
func e22ms(d sim.Duration, have bool) string {
	if !have {
		return "-"
	}
	return fmt.Sprintf("%.2fms", float64(d)/float64(sim.Millisecond))
}

func runE22(env *obs.Env) *Table {
	t := &Table{
		ID: "E22", Title: "Self-healing reconfiguration recovery sweep",
		Source: "§3.3, §3.4, §5 (dynamic reconfiguration closing the monitoring loop)",
		Columns: []string{"fault-level", "config", "faults", "DA-avail",
			"recoveries", "mean-rec", "max-rec", "shed", "rebalances", "failovers"},
		Expectation: "the orchestrator restores ≥99% deterministic-function " +
			"availability at the highest fault level with millisecond-scale " +
			"detect→steady recoveries, while the bare stack degrades visibly; " +
			"every configuration at a level faces the identical fault schedule",
	}
	levels := e22Levels()
	configs := e22Configs()
	cells := sweep(env, len(levels)*len(configs), func(i int) e22Result {
		li := i / len(configs)
		return e22Cell(env, li, levels[li], configs[i%len(configs)])
	})
	t.Holds = true
	top := len(levels) - 1
	for li, lv := range levels {
		levelFaults := -1
		for ci, cfg := range configs {
			r := cells[li*len(configs)+ci]
			t.AddRow(lv.name, cfg.name, itoa(int64(r.faults)), pct(r.avail),
				itoa(int64(r.recoveries)), e22ms(r.meanRec, r.recoveries > 0),
				e22ms(r.maxRec, r.recoveries > 0), itoa(int64(r.shed)),
				itoa(int64(r.rebalances)), itoa(int64(r.failovers)))
			// Identical campaign per level: the schedule must not depend on
			// the recovery configuration.
			if levelFaults == -1 {
				levelFaults = r.faults
			} else if r.faults != levelFaults {
				t.Holds = false
			}
			// Fault-free level: near-perfect availability, no recoveries.
			if li == 0 && (r.avail < 0.999 || r.recoveries != 0) {
				t.Holds = false
			}
			// The admission model mirrors the physical deployment exactly
			// (replicas are modeled when the orchestrator is active), so a
			// rollback would mean model/platform drift.
			if r.rollbacks != 0 {
				t.Holds = false
			}
			if li == top {
				switch cfg.name {
				case "reconfig":
					if r.avail < 0.99 || r.recoveries == 0 || r.meanRec > 25*sim.Millisecond {
						t.Holds = false
					}
				case "both":
					if r.avail < 0.99 {
						t.Holds = false
					}
				case "none":
					if r.avail > 0.97 {
						t.Holds = false // no recovery must visibly degrade
					}
				}
			}
		}
	}
	return t
}
