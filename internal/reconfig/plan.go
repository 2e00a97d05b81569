package reconfig

import (
	"fmt"
	"sort"

	"dynaplat/internal/admission"
	"dynaplat/internal/model"
	"dynaplat/internal/platform"
)

// plannedMove is one model-level placement decision awaiting physical
// execution.
type plannedMove struct {
	spec   model.App
	ifaces []model.Interface
	to     string
	sheds  []*Shed
}

// recover runs the recovery transaction for one declared-failed ECU.
//
// Phase A (model): every app placed on the failed ECU is removed from
// the system model and re-placed through the admission controller —
// deterministic apps first, highest criticality first — shedding
// lower-criticality NDAs from the target when direct capacity is
// insufficient. Apps that fit nowhere are re-modeled at their failed
// placement and recorded as stranded.
//
// Phase B (physical): sheds are uninstalled, moved apps are uninstalled
// from the failed node and installed + started on their new node, with
// an undo journal. Any physical error rolls the journal back and
// restores the model snapshot: the recovery either fully happens or
// leaves no trace.
//
// Phase C (commit): SOA endpoints migrate, runtime supervision
// transfers, the mode cascade escalates if the recovery degraded the
// vehicle, and the steady detector arms on the moved apps' first
// completions.
func (o *Orchestrator) recover(fs *failureState) {
	rec := fs.rec
	fs.executed = true
	rec.PlannedAt = o.k.Now()
	snap := o.ctrl.Snapshot()
	shedMark, strandedMark := len(o.sheds), len(o.stranded)
	o.instant("plan", rec.ECU, "recovery planning")

	// --- Phase A: model-level planning.
	var plan []plannedMove
	moved := map[string]bool{}
	for _, spec := range o.lostApps(rec.ECU) {
		ifaces := o.ifaceCopies(spec.Name)
		if err := o.ctrl.Remove(spec.Name); err != nil {
			continue
		}
		dst, sheds := o.place(spec, ifaces, moved, true)
		if dst == "" {
			// Stranded: keep the app modeled at its failed placement so
			// a later repair revives it in place.
			o.ctrl.Install(spec, rec.ECU, ifaces)
			rec.Stranded = append(rec.Stranded, spec.Name)
			o.stranded = append(o.stranded, strandedApp{App: spec.Name, Home: rec.ECU})
			o.count("reconfig_stranded", rec.ECU)
			o.instant("stranded", rec.ECU, spec.Name)
			continue
		}
		moved[spec.Name] = true
		plan = append(plan, plannedMove{spec: spec, ifaces: ifaces, to: dst, sheds: sheds})
		rec.Sheds = append(rec.Sheds, sheds...)
		o.sheds = append(o.sheds, sheds...)
	}
	if o.obs != nil {
		o.obs.Tracer().Complete("reconfig", "plan "+rec.ECU, "reconfig", rec.PlannedAt, 0,
			fmt.Sprintf("moves=%d sheds=%d stranded=%d", len(plan), len(rec.Sheds), len(rec.Stranded)))
	}

	// --- Phase B: physical execution under an undo journal.
	var journal []func()
	for _, pm := range plan {
		for _, sh := range pm.sheds {
			if err := o.execShed(sh, &journal); err != nil {
				o.rollback(rec, snap, journal, shedMark, strandedMark, err)
				return
			}
		}
		if err := o.execInstall(pm.spec, rec.ECU, pm.to, &journal); err != nil {
			o.rollback(rec, snap, journal, shedMark, strandedMark, err)
			return
		}
	}

	// --- Phase C: commit.
	for _, pm := range plan {
		o.commitMove(rec, pm.spec, rec.ECU, pm.to)
	}
	if o.modes != nil && len(rec.Sheds)+len(rec.Stranded) > 0 {
		o.modes.Escalate(fmt.Sprintf("reconfig: ECU %s lost capacity (%d shed, %d stranded)",
			rec.ECU, len(rec.Sheds), len(rec.Stranded)))
		o.escalations++
	}
	if len(rec.pending) == 0 {
		o.steady(rec, "no deterministic moves to settle")
		return
	}
	rec.settleRef = o.k.After(o.cfg.SettleTimeout, func() { o.steady(rec, "settle timeout") })
}

// rollback undoes a partially executed recovery: the journal restores
// the nodes, the snapshot restores the model, and the bookkeeping added
// during planning is discarded.
func (o *Orchestrator) rollback(rec *Recovery, snap admission.Snapshot, journal []func(),
	shedMark, strandedMark int, cause error) {
	for i := len(journal) - 1; i >= 0; i-- {
		journal[i]()
	}
	o.ctrl.Restore(snap)
	o.sheds = o.sheds[:shedMark]
	o.stranded = o.stranded[:strandedMark]
	rec.Moves, rec.Sheds, rec.Stranded = nil, nil, nil
	rec.RolledBack = true
	o.count("reconfig_rollbacks", rec.ECU)
	o.instant("rollback", rec.ECU, cause.Error())
	o.k.Trace("reconfig", "ECU %s recovery rolled back: %v", rec.ECU, cause)
	o.steady(rec, "rolled back")
}

// lostApps captures the specs of every app the model places on the ECU,
// in recovery order: deterministic before non-deterministic, higher
// ASIL first, then by name.
func (o *Orchestrator) lostApps(ecu string) []model.App {
	var lost []model.App
	for _, a := range o.ctrl.System().AppsOn(ecu) {
		spec := *a
		spec.Candidates = append([]string(nil), a.Candidates...)
		lost = append(lost, spec)
	}
	sort.SliceStable(lost, func(i, j int) bool {
		a, b := lost[i], lost[j]
		if a.Kind != b.Kind {
			return a.Kind == model.Deterministic
		}
		if a.ASIL != b.ASIL {
			return a.ASIL > b.ASIL
		}
		return a.Name < b.Name
	})
	return lost
}

// ifaceCopies value-copies an app's modeled interfaces (call before the
// app is removed from the model).
func (o *Orchestrator) ifaceCopies(app string) []model.Interface {
	var out []model.Interface
	for _, ifc := range o.ctrl.System().InterfacesOf(app) {
		out = append(out, *ifc)
	}
	return out
}

// candidateECUs lists the surviving placement candidates for a spec in
// deterministic (sorted) order.
func (o *Orchestrator) candidateECUs(spec model.App) []string {
	var out []string
	for _, ecu := range o.p.Nodes() {
		if _, bad := o.failed[ecu]; bad {
			continue
		}
		node := o.p.Node(ecu)
		if node.Health() != platform.HealthUp {
			continue
		}
		if len(spec.Candidates) > 0 && !containsStr(spec.Candidates, ecu) {
			continue
		}
		out = append(out, ecu)
	}
	return out
}

// place finds a surviving ECU for the spec: first-fit through the plain
// admission test, then — when allowShed is set — a shed trial per
// candidate. On success the app is admitted into the model and the
// (model-level) sheds it required are returned.
func (o *Orchestrator) place(spec model.App, ifaces []model.Interface,
	moved map[string]bool, allowShed bool) (string, []*Shed) {
	cands := o.candidateECUs(spec)
	for _, ecu := range cands {
		req := admission.Request{App: spec, ECU: ecu, Interfaces: ifaces}
		if d := o.ctrl.Check(req); d.Admitted {
			if _, err := o.ctrl.Admit(req); err == nil {
				return ecu, nil
			}
		}
	}
	if !allowShed {
		return "", nil
	}
	for _, ecu := range cands {
		if sheds, ok := o.tryShed(spec, ifaces, ecu, moved); ok {
			return ecu, sheds
		}
	}
	return "", nil
}

// tryShed removes strictly-lower-criticality NDAs from the candidate —
// lowest ASIL first — re-testing admission after each, under a
// sub-snapshot that is restored when even a fully shed ECU cannot host
// the app.
func (o *Orchestrator) tryShed(spec model.App, ifaces []model.Interface,
	ecu string, moved map[string]bool) ([]*Shed, bool) {
	sub := o.ctrl.Snapshot()
	req := admission.Request{App: spec, ECU: ecu, Interfaces: ifaces}
	var planned []*Shed
	for _, v := range o.victims(ecu, spec.ASIL, moved) {
		vifs := o.ifaceCopies(v.Name)
		if err := o.ctrl.Remove(v.Name); err != nil {
			continue
		}
		planned = append(planned, &Shed{App: v.Name, ECU: ecu, ASIL: v.ASIL, spec: v, ifaces: vifs})
		if d := o.ctrl.Check(req); d.Admitted {
			if _, err := o.ctrl.Admit(req); err == nil {
				return planned, true
			}
		}
	}
	o.ctrl.Restore(sub)
	return nil, false
}

// victims captures the sheddable NDAs on an ECU: non-deterministic,
// strictly below the incoming app's ASIL, and not themselves placed by
// the running recovery. Lowest criticality first, then by name.
func (o *Orchestrator) victims(ecu string, below model.ASIL, moved map[string]bool) []model.App {
	var out []model.App
	for _, a := range o.ctrl.System().AppsOn(ecu) {
		if a.Kind != model.NonDeterministic || a.ASIL >= below || moved[a.Name] {
			continue
		}
		out = append(out, *a)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].ASIL != out[j].ASIL {
			return out[i].ASIL < out[j].ASIL
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// execShed physically uninstalls one shed victim, detaching its runtime
// supervision, and journals the reverse.
func (o *Orchestrator) execShed(sh *Shed, journal *[]func()) error {
	node := o.p.Node(sh.ECU)
	if node == nil {
		return nil // model-only deployment (planning tests)
	}
	inst := node.App(sh.App)
	if inst == nil {
		return nil
	}
	sh.behavior = inst.Behavior
	if err := node.Uninstall(sh.App); err != nil {
		return fmt.Errorf("reconfig: shed %s on %s: %w", sh.App, sh.ECU, err)
	}
	if as := o.alives[sh.ECU]; as != nil {
		if min, max, ok := as.s.Bounds(sh.App); ok {
			sh.aliveSup, sh.aliveMin, sh.aliveMax = true, min, max
			as.s.Forget(sh.App)
		}
	}
	shed := sh
	*journal = append(*journal, func() {
		ri, err := node.Install(shed.spec, shed.behavior)
		if err != nil {
			return
		}
		_ = ri.Start()
		if shed.aliveSup {
			if as := o.alives[shed.ECU]; as != nil {
				_ = as.s.Supervise(shed.App, shed.aliveMin, shed.aliveMax)
			}
		}
	})
	o.count("reconfig_sheds", sh.ECU)
	o.instant("shed", sh.ECU, sh.App)
	o.k.Trace("reconfig", "shed %s (ASIL %v) on %s", sh.App, sh.ASIL, sh.ECU)
	return nil
}

// execInstall physically moves one app: uninstall from the failed node
// (capturing its behavior), install + start on the destination, both
// journaled.
func (o *Orchestrator) execInstall(spec model.App, from, to string, journal *[]func()) error {
	var behavior platform.Behavior
	if fromNode := o.p.Node(from); fromNode != nil {
		if inst := fromNode.App(spec.Name); inst != nil {
			behavior = inst.Behavior
			if err := fromNode.Uninstall(spec.Name); err != nil {
				return fmt.Errorf("reconfig: uninstall %s from %s: %w", spec.Name, from, err)
			}
			reSpec, reBehavior := spec, behavior
			*journal = append(*journal, func() {
				// Reinstalled but not started: the failure left it stopped.
				_, _ = fromNode.Install(reSpec, reBehavior)
			})
		}
	}
	toNode := o.p.Node(to)
	if toNode == nil {
		return fmt.Errorf("reconfig: no node on ECU %s", to)
	}
	inst, err := toNode.Install(spec, behavior)
	if err != nil {
		return fmt.Errorf("reconfig: install %s on %s: %w", spec.Name, to, err)
	}
	name := spec.Name
	*journal = append(*journal, func() { _ = toNode.Uninstall(name) })
	if err := inst.Start(); err != nil {
		return fmt.Errorf("reconfig: start %s on %s: %w", spec.Name, to, err)
	}
	return nil
}

// commitMove records a completed move and performs its side effects:
// endpoint migration, supervision transfer, steady tracking.
func (o *Orchestrator) commitMove(rec *Recovery, spec model.App, from, to string) {
	rec.Moves = append(rec.Moves, Move{App: spec.Name, From: from, To: to, Kind: spec.Kind, ASIL: spec.ASIL})
	o.count("reconfig_moves", to)
	o.instant("migrate", to, spec.Name+" from "+from)
	o.k.Trace("reconfig", "moved %s: %s -> %s", spec.Name, from, to)
	o.migrateEndpoint(spec.Name, to)
	o.moveSupervision(spec.Name, from, to)
	if spec.Kind == model.Deterministic {
		if rec.pending == nil {
			rec.pending = map[string]string{}
		}
		rec.pending[spec.Name] = to
		o.hookNode(to)
	}
}

// migrateEndpoint re-points the app's SOA endpoint at its new ECU, so
// offered services keep their identity across the move.
func (o *Orchestrator) migrateEndpoint(app, to string) {
	if o.mw == nil {
		return
	}
	if ep := o.mw.EndpointOf(app); ep != nil {
		ep.Migrate(to)
	}
}

// moveSupervision transfers alive bounds from the failed node's
// supervisor to the destination's, and restarts the destination's
// silence clock: an ECU that carried no periodic apps before the move
// has an arbitrarily old lastSeen, and must be granted a full threshold
// to produce the incomer's first completion.
func (o *Orchestrator) moveSupervision(app, from, to string) {
	if w := o.watch[to]; w != nil {
		w.lastSeen = o.k.Now()
	}
	if as := o.alives[from]; as != nil {
		if min, max, ok := as.s.Bounds(app); ok {
			as.s.Forget(app)
			if at := o.alives[to]; at != nil {
				_ = at.s.Supervise(app, min, max)
			}
		}
	}
}

func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
