package reconfig

import (
	"dynaplat/internal/admission"
	"dynaplat/internal/platform"
)

// onRepair reacts to a failed ECU's observed down→up transition: clear
// the failure latch, reset silence supervision, and — unless the
// failure never got as far as a recovery — re-balance the vehicle back
// toward its nominal deployment.
func (o *Orchestrator) onRepair(ecu string, fs *failureState) {
	delete(o.failed, ecu)
	kept := o.failedNames[:0]
	for _, n := range o.failedNames {
		if n != ecu {
			kept = append(kept, n)
		}
	}
	o.failedNames = kept
	if w := o.watch[ecu]; w != nil {
		w.lastSeen = o.k.Now()
	}
	if !fs.executed {
		// Repaired inside the replan delay: cancel the pending recovery.
		fs.planRef.Cancel()
		fs.rec.Aborted = true
		o.count("reconfig_aborted", ecu)
		o.instant("abort", ecu, "repaired before replan")
		o.k.Trace("reconfig", "ECU %s repaired before replan; recovery aborted", ecu)
		return
	}
	o.rebalance(ecu)
}

// rebalance reacts to one repaired ECU, in four steps:
//
//  1. stranded apps homed on it were revived by the node's own restart;
//  2. apps recovered off it are re-homed;
//  3. stranded apps from other, still-failed ECUs are retried against
//     the freed capacity (plain admission only — no fresh sheds);
//  4. outstanding sheds are restored where they came from.
//
// When no failure, shed or stranded app remains, every mode escalation
// the orchestrator caused is relaxed.
func (o *Orchestrator) rebalance(ecu string) {
	reb := &Rebalance{ECU: ecu, At: o.k.Now()}
	o.Rebalances = append(o.Rebalances, reb)
	o.count("reconfig_rebalances", ecu)
	o.instant("repair", ecu, "re-balancing")
	o.k.Trace("reconfig", "ECU %s repaired; re-balancing", ecu)

	// 1. Stranded apps homed here came back with the node.
	keptStranded := o.stranded[:0]
	for _, st := range o.stranded {
		if st.Home != ecu {
			keptStranded = append(keptStranded, st)
			continue
		}
		reb.Revived = append(reb.Revived, st.App)
		o.count("reconfig_revived", ecu)
		if node := o.p.Node(ecu); node != nil {
			if inst := node.App(st.App); inst != nil && inst.State != platform.StateRunning {
				_ = inst.Start()
			}
		}
	}
	o.stranded = keptStranded

	// 2. Re-home the apps recovered off this ECU.
	for _, rec := range o.Recoveries {
		if rec.ECU != ecu || rec.Aborted || rec.RolledBack {
			continue
		}
		for _, mv := range rec.Moves {
			if o.ctrl.System().Placement[mv.App] != mv.To {
				continue // moved again since; leave it be
			}
			if done, ok := o.tryMove(mv.App, mv.To, ecu); ok {
				reb.Rehomed = append(reb.Rehomed, done)
				o.count("reconfig_rehomed", ecu)
				o.instant("rehome", ecu, mv.App)
			}
		}
	}

	// 3. Retry stranded apps from other, still-failed ECUs.
	keptStranded = o.stranded[:0]
	for _, st := range o.stranded {
		if done, ok := o.placeStranded(st); ok {
			reb.Placed = append(reb.Placed, done)
			o.count("reconfig_placed", done.To)
			o.instant("place-stranded", done.To, st.App)
			continue
		}
		keptStranded = append(keptStranded, st)
	}
	o.stranded = keptStranded

	// 4. Restore outstanding sheds.
	for _, sh := range o.sheds {
		if sh.Restored {
			continue
		}
		if o.restoreShed(sh) {
			reb.Restored = append(reb.Restored, sh.App)
			o.count("reconfig_restored", sh.ECU)
			o.instant("restore", sh.ECU, sh.App)
		}
	}

	// Relax the cascade once the fleet is whole again.
	if o.modes != nil && len(o.failed) == 0 && o.StrandedCount() == 0 && o.ShedCount() == 0 {
		for o.escalations > 0 {
			o.modes.Relax("reconfig: capacity restored")
			o.escalations--
		}
	}
}

// tryMove transactionally relocates one app from→to: model admission
// first, then the physical move, reverting the model on any failure.
func (o *Orchestrator) tryMove(app, from, to string) (Move, bool) {
	sys := o.ctrl.System()
	a := sys.App(app)
	if a == nil || sys.Placement[app] != from {
		return Move{}, false
	}
	spec := *a
	spec.Candidates = append([]string(nil), a.Candidates...)
	ifaces := o.ifaceCopies(app)
	if err := o.ctrl.Remove(app); err != nil {
		return Move{}, false
	}
	req := admission.Request{App: spec, ECU: to, Interfaces: ifaces}
	if d := o.ctrl.Check(req); !d.Admitted {
		o.ctrl.Install(spec, from, ifaces)
		return Move{}, false
	}
	if _, err := o.ctrl.Admit(req); err != nil {
		o.ctrl.Install(spec, from, ifaces)
		return Move{}, false
	}
	var journal []func()
	if err := o.execInstall(spec, from, to, &journal); err != nil {
		for i := len(journal) - 1; i >= 0; i-- {
			journal[i]()
		}
		_ = o.ctrl.Remove(app)
		o.ctrl.Install(spec, from, ifaces)
		return Move{}, false
	}
	o.migrateEndpoint(app, to)
	o.moveSupervision(app, from, to)
	o.k.Trace("reconfig", "moved %s: %s -> %s", app, from, to)
	return Move{App: app, From: from, To: to, Kind: spec.Kind, ASIL: spec.ASIL}, true
}

// placeStranded retries one stranded app against the current capacity
// (plain admission — re-balancing never sheds).
func (o *Orchestrator) placeStranded(st strandedApp) (Move, bool) {
	sys := o.ctrl.System()
	a := sys.App(st.App)
	if a == nil || sys.Placement[st.App] != st.Home {
		return Move{}, false
	}
	spec := *a
	spec.Candidates = append([]string(nil), a.Candidates...)
	ifaces := o.ifaceCopies(st.App)
	if err := o.ctrl.Remove(st.App); err != nil {
		return Move{}, false
	}
	dst, _ := o.place(spec, ifaces, nil, false)
	if dst == "" {
		o.ctrl.Install(spec, st.Home, ifaces)
		return Move{}, false
	}
	var journal []func()
	if err := o.execInstall(spec, st.Home, dst, &journal); err != nil {
		for i := len(journal) - 1; i >= 0; i-- {
			journal[i]()
		}
		_ = o.ctrl.Remove(st.App)
		o.ctrl.Install(spec, st.Home, ifaces)
		return Move{}, false
	}
	o.migrateEndpoint(st.App, dst)
	o.moveSupervision(st.App, st.Home, dst)
	return Move{App: st.App, From: st.Home, To: dst, Kind: spec.Kind, ASIL: spec.ASIL}, true
}

// restoreShed re-admits and reinstalls one shed app at its original
// ECU, restoring its alive supervision.
func (o *Orchestrator) restoreShed(sh *Shed) bool {
	req := admission.Request{App: sh.spec, ECU: sh.ECU, Interfaces: sh.ifaces}
	if d := o.ctrl.Check(req); !d.Admitted {
		return false
	}
	if _, err := o.ctrl.Admit(req); err != nil {
		return false
	}
	node := o.p.Node(sh.ECU)
	if node != nil && node.App(sh.App) == nil {
		inst, err := node.Install(sh.spec, sh.behavior)
		if err != nil {
			_ = o.ctrl.Remove(sh.App)
			return false
		}
		_ = inst.Start()
		if sh.aliveSup {
			if as := o.alives[sh.ECU]; as != nil {
				_ = as.s.Supervise(sh.App, sh.aliveMin, sh.aliveMax)
			}
		}
	}
	sh.Restored = true
	o.k.Trace("reconfig", "restored shed app %s on %s", sh.App, sh.ECU)
	return true
}
