// Package fleet scales the simulation from one vehicle to a fleet: it
// instantiates N independently seeded vehicle simulations (heterogeneous
// variants drawn from the internal/model generator) and drives a
// fleet-wide staged OTA campaign through the on-vehicle update
// orchestrator (internal/safety/update) and a simulated OEM cloud
// backend — canary cohort, ramped rollout waves, per-cohort aggregation,
// abort-on-regression, halt-and-rollback of the regressing wave.
//
// Determinism contract: vehicle i's report is a pure function of
// fleetSeed ⊕ i and the update spec. Vehicles are sharded across a
// worker pool (internal/par, the same pool shape as the experiment
// harness) and merged sorted by vehicle index, so a fleet run renders
// byte-identically for any worker count — and any single vehicle renders
// byte-identically whether it runs alone, in a 10-vehicle fleet, or in a
// 1000-vehicle sharded fleet.
package fleet

import (
	"fmt"

	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/platform"
	"dynaplat/internal/safety/update"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/vehicle"
)

// Per-vehicle simulation timeline. The windows are fixed: the baseline
// window establishes pre-update availability, the OTA session starts at
// its end, and the post window measures availability once the update
// (startup + state sync + redirect + soak ≈ 180ms) has settled.
const (
	vehPreEnd    = 250 * sim.Millisecond
	vehPostStart = 700 * sim.Millisecond
	vehHorizon   = 1000 * sim.Millisecond
	// DefaultSoak is the verification soak window of the staged update.
	DefaultSoak = 150 * sim.Millisecond
)

// UpdateSpec describes the campaign's payload as one vehicle sees it.
type UpdateSpec struct {
	// Verify selects the four-phase update with DefaultSoak verification
	// and automatic rollback; false is the blind staged update — the
	// "bare" rollout that commits whatever arrives.
	Verify bool
	// FaultProb is the per-vehicle probability that the new version's
	// image is bad (publishes only every fourth period — a visible
	// deterministic-function regression). The draw comes from the
	// vehicle's own seeded stream, so which vehicles are affected is a
	// pure function of the fleet seed.
	FaultProb float64
}

// Outcome classifies how the campaign left one vehicle.
type Outcome int

const (
	// OutcomeShipped: the new version is committed and serving.
	OutcomeShipped Outcome = iota
	// OutcomeRolledBack: on-vehicle verification failed during the soak
	// window; the old version kept serving.
	OutcomeRolledBack
	// OutcomeFailed: the update session could not start (e.g. install).
	OutcomeFailed
	// OutcomeRemoteRollback: the update committed, but the cloud backend
	// aborted the wave and commanded a rollback.
	OutcomeRemoteRollback
	// OutcomeSkipped: the campaign halted before this vehicle's wave.
	OutcomeSkipped
)

func (o Outcome) String() string {
	switch o {
	case OutcomeShipped:
		return "shipped"
	case OutcomeRolledBack:
		return "rolled-back"
	case OutcomeFailed:
		return "failed"
	case OutcomeRemoteRollback:
		return "remote-rollback"
	case OutcomeSkipped:
		return "skipped"
	}
	return "unknown"
}

// VehicleReport is one vehicle's result, renderable canonically.
type VehicleReport struct {
	Index int
	ID    string

	// Variant shape.
	ECUs, DAs, NDAs int
	Bus             string

	// BadImage reports the seeded draw: this vehicle received a bad
	// update image.
	BadImage bool

	// PreAvail/PostAvail are the deterministic-function availabilities
	// (fraction of periods whose sample reached the cockpit sink) in the
	// baseline and post-update windows.
	PreAvail, PostAvail float64

	Outcome Outcome
	// UpdateSpan is the OTA session length (start → commit/rollback).
	UpdateSpan sim.Duration
	// DeadLetters counts middleware deliveries dropped at teardown.
	DeadLetters int64
}

// Render returns the canonical one-line form — the unit of the fleet
// layer's byte-identity contract.
func (r VehicleReport) Render() string {
	bad := "no"
	if r.BadImage {
		bad = "yes"
	}
	return fmt.Sprintf(
		"%s ecus=%d bus=%s das=%d ndas=%d bad=%s pre=%.1f%% post=%.1f%% outcome=%s span=%.2fms dead=%d",
		r.ID, r.ECUs, r.Bus, r.DAs, r.NDAs, bad,
		r.PreAvail*100, r.PostAvail*100, r.Outcome,
		float64(r.UpdateSpan)/float64(sim.Millisecond), r.DeadLetters)
}

// VehicleID renders the canonical vehicle identifier for an index.
func VehicleID(index int) string { return fmt.Sprintf("veh-%05d", index) }

// RunVehicle simulates vehicle `index` of the fleet end to end: build
// the variant, run the baseline window, apply the staged OTA update, run
// the post window, measure. The result is a pure function of
// (fleetSeed ⊕ index, upd) — it does not depend on fleet size, wave
// membership, or worker interleaving.
func RunVehicle(fleetSeed uint64, index int, upd UpdateSpec) VehicleReport {
	rng := sim.NewRNG(fleetSeed ^ uint64(index))
	sys := model.GenerateVariant(rng, VehicleID(index), model.VariantConfig{})
	bad := rng.Bool(upd.FaultProb)
	k := sim.NewKernel(rng.Uint64())

	rep := VehicleReport{
		Index: index, ID: sys.Name,
		ECUs: len(sys.ECUs), Bus: sys.Networks[0].Kind.String(),
		BadImage: bad,
	}

	v, err := vehicle.Build(k, sys, vehicle.Config{})
	if err != nil {
		panic(fmt.Sprintf("fleet: %s: build: %v", sys.Name, err))
	}
	mw, p := v.Middleware, v.Platform

	// Start the app mix. DA apps publish their period index to the
	// cockpit sink every activation; each DA's vehicle.Probe at the sink
	// is the availability ground truth.
	cons := mw.Endpoint(model.SinkApp, sys.Placement[model.SinkApp])
	var das []*vehicle.Probe
	var target *vehicle.Probe
	for _, app := range sys.Apps {
		home := sys.Placement[app.Name]
		inst := p.Node(home).App(app.Name)
		if app.Kind != model.Deterministic {
			if err := inst.Start(); err != nil {
				panic(fmt.Sprintf("fleet: %s: start %s: %v", sys.Name, app.Name, err))
			}
			rep.NDAs++
			continue
		}
		rep.DAs++
		probe := vehicle.NewProbe(app.Period, int(int64(vehHorizon)/int64(app.Period))+2)
		das = append(das, probe)
		if app.Name == model.OTATargetApp {
			target = probe
		}
		iface := app.Name + ".state"
		ep := mw.Endpoint(app.Name, home)
		payload := sys.Interface(iface).PayloadBytes
		publish := func(int64) {
			if idx, ok := probe.Index(k.Now()); ok {
				ep.Publish(iface, payload, idx)
			}
		}
		if err := cons.Subscribe(iface, func(ev soa.Event) { probe.MarkEvent(ev) }); err != nil {
			panic(fmt.Sprintf("fleet: %s: subscribe %s: %v", sys.Name, iface, err))
		}
		inst.Behavior = platform.Behavior{OnActivate: publish}
		if err := inst.Start(); err != nil {
			panic(fmt.Sprintf("fleet: %s: start %s: %v", sys.Name, app.Name, err))
		}
	}

	// The OTA session: a v2 image of the target app. A bad image
	// publishes only every fourth period — exactly the regression the
	// soak verification (and, fleet-wide, the canary cohort) must catch.
	mgr := update.NewManager(p, mw)
	// Persisted target state exercises the state-sync phase.
	tgtHome := sys.Placement[model.OTATargetApp]
	p.Node(tgtHome).Store().Put(model.OTATargetApp, "calib", []byte("k=1.02"))
	p.Node(tgtHome).Store().Put(model.OTATargetApp, "odo", []byte("42"))

	newSpec := *sys.App(model.OTATargetApp)
	newSpec.Version = 2
	newName := fmt.Sprintf("%s@%d", model.OTATargetApp, newSpec.Version)
	tgtIface := model.OTATargetApp + ".state"
	tgtPayload := sys.Interface(tgtIface).PayloadBytes
	ep2 := mw.Endpoint(newName, tgtHome)
	publishV2 := func(int64) {
		if idx, ok := target.Index(k.Now()); ok && (!bad || idx%4 == 0) {
			ep2.Publish(tgtIface, tgtPayload, idx)
		}
	}
	offers := []update.Offers{{
		Iface: tgtIface,
		Opts:  soa.OfferOpts{Network: model.BackboneName, Class: network.ClassControl},
	}}

	// Soak verification: the last complete soak window of target periods
	// must show healthy delivery. After redirect only the new version
	// delivers (stale publishes by the old one are dropped), so the
	// window measures exactly the v2 image's behavior.
	verify := func() error {
		now, _ := target.Index(k.Now())
		soak, _ := target.Index(sim.Time(DefaultSoak)) // whole periods per soak
		lo, hi := max(now-soak, 1), now-1
		if n := hi - lo; n > 0 {
			if hits := target.Hits(lo, hi); float64(hits) < 0.5*float64(n) {
				return fmt.Errorf("soak health %d/%d", hits, n)
			}
		}
		return nil
	}
	if !upd.Verify {
		verify = nil // the blind update
	}

	updateStart := sim.Time(vehPreEnd)
	var updRep update.Report
	updateDone := false
	var updateEnd sim.Time
	done := func(r update.Report) {
		updRep = r
		updateDone = true
		updateEnd = k.Now()
	}
	sessionErr := false
	k.At(updateStart, func() {
		b := platform.Behavior{OnActivate: publishV2}
		if err := mgr.Staged(model.OTATargetApp, newSpec, b, offers, DefaultSoak, verify, done); err != nil {
			sessionErr = true
		}
	})

	k.RunUntil(sim.Time(vehHorizon))

	// Availability over complete periods inside each window.
	avail := func(from, to sim.Duration) float64 {
		hits, n := 0, 0
		for _, pr := range das {
			lo, _ := pr.Index(sim.Time(from))
			hi, _ := pr.Index(sim.Time(to))
			lo++ // skip the period from falls in
			if hi > lo {
				hits += pr.Hits(lo, hi)
				n += hi - lo
			}
		}
		if n == 0 {
			return 0
		}
		return float64(hits) / float64(n)
	}
	rep.PreAvail = avail(0, vehPreEnd)
	rep.PostAvail = avail(vehPostStart, vehHorizon)
	rep.DeadLetters = mw.DeadLetters

	switch {
	case sessionErr || !updateDone:
		rep.Outcome = OutcomeFailed
	case updRep.RolledBack:
		rep.Outcome = OutcomeRolledBack
		rep.UpdateSpan = updateEnd.Sub(updateStart)
	default:
		rep.Outcome = OutcomeShipped
		rep.UpdateSpan = updateEnd.Sub(updateStart)
	}
	return rep
}
