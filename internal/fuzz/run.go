package fuzz

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"

	"dynaplat/internal/admission"
	"dynaplat/internal/faults"
	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/obs"
	"dynaplat/internal/platform"
	"dynaplat/internal/reconfig"
	"dynaplat/internal/safety/update"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/vehicle"
)

// Universal-property names (DESIGN.md §12).
const (
	PropRerun        = "rerun-identity"
	PropObsNeutral   = "observation-neutrality"
	PropConservation = "conservation"
	PropQuiesce      = "quiesce"
	PropRollback     = "rollback-identity"
)

// Violation is one property breach found for a scenario.
type Violation struct {
	Property string `json:"property"`
	Detail   string `json:"detail"`
}

// runResult is the outcome of one scenario execution.
type runResult struct {
	fingerprint string
	violations  []Violation
}

const (
	// runTail bounds settling after the horizon: mesh call budgets are
	// <= 200 ms, so every conservation account is closed by then.
	runTail = 300 * sim.Millisecond
	// quiesceSettle is how long after teardown the kernel may still
	// drain in-flight frames and one-shot timers before the leak audit.
	quiesceSettle = 400 * sim.Millisecond
)

// pubState accumulates one publisher's observable outcome.
type pubState struct {
	published    int64
	delivered    int64
	auxDelivered int64
	misses       int64
	probe        *vehicle.Probe
	rel          *soa.ReliableSub
}

// runScenario executes one spec through the full stack on a kernel from
// env (scope "fuzz") and returns its behavioral fingerprint plus any
// in-run property violations (conservation, quiesce, rollback identity).
// The fingerprint is observation-invariant by construction: it reads only application-visible state, never kernel
// internals or obs data.
func runScenario(sp Spec, env *obs.Env) *runResult {
	res := &runResult{}
	violate := func(prop, format string, args ...any) {
		res.violations = append(res.violations, Violation{
			Property: prop, Detail: fmt.Sprintf(format, args...),
		})
	}

	k := env.Kernel("fuzz", sp.Seed)

	// The vehicle: buses, each wrapped in the fault interceptor
	// (zero-rate when no campaign) so partitions and babble have
	// somewhere to act. The platform tiers (update / reconfig) also get
	// their ECUs and installed apps; plain scenarios have no nodes.
	platformOn := sp.Update != nil || sp.Reconfig != nil
	sys := vehicleModel(sp, platformOn)
	var netFaults faults.NetConfig
	if sp.Campaign != nil {
		netFaults = sp.Campaign.Net
	}
	v, err := vehicle.Build(k, sys, vehicle.Config{Faults: &netFaults})
	if err != nil {
		panic(fmt.Sprintf("fuzz: build: %v", err))
	}
	mw, p, nets := v.Middleware, v.Platform, v.Faults
	mw.SetJitterSeed(sp.Seed ^ 0x5A5A5A5A)

	// Publishers and the sink's delivery bitmaps. Self-rearming tickers
	// park their latest EventRef here so teardown can cancel any that
	// are still pending (they stop re-arming at the horizon on their
	// own; the cancel keeps the quiesce property about the platform
	// under test, not about the harness's own timers).
	var tickerRefs []*sim.EventRef
	sink := mw.Endpoint("dash", "sink")
	pubs := make([]*pubState, len(sp.Pubs))
	for i := range sp.Pubs {
		pub := &sp.Pubs[i]
		period := pub.App.Period
		st := &pubState{probe: vehicle.NewProbe(period, int(int64(sp.Horizon)/int64(period)))}
		pubs[i] = st

		ep := mw.Endpoint(pub.App.Name, pub.Home)
		ep.Offer(pub.Iface, soa.OfferOpts{Network: sp.Backbone.Name,
			Class: network.ClassControl})
		if pub.History > 0 {
			if err := ep.EnableHistory(pub.Iface, pub.History); err != nil {
				panic(err)
			}
		}
		if pub.AuxIface != "" {
			ep.Offer(pub.AuxIface, soa.OfferOpts{Network: sp.Aux.Name,
				Class: network.ClassPriority})
		}

		publish := func() {
			idx, ok := st.probe.Index(k.Now())
			if !ok {
				return
			}
			st.published++
			if pub.Reliable {
				ep.PublishSeq(pub.Iface, pub.Payload, idx)
			} else {
				ep.Publish(pub.Iface, pub.Payload, idx)
			}
			if pub.AuxIface != "" {
				ep.Publish(pub.AuxIface, pub.Payload, idx)
			}
		}

		onEvent := func(ev soa.Event) {
			if st.probe.MarkEvent(ev) {
				st.delivered++
			}
		}
		qos := soa.QoS{History: pub.History, Deadline: pub.QoSDeadline,
			OnDeadlineMiss: func(string, sim.Duration) { st.misses++ }}
		if pub.Reliable {
			rel, err := sink.SubscribeReliable(pub.Iface, qos, onEvent)
			if err != nil {
				panic(err)
			}
			st.rel = rel
		} else if pub.QoSDeadline > 0 || pub.History > 0 {
			if err := sink.SubscribeQoS(pub.Iface, qos, onEvent); err != nil {
				panic(err)
			}
		} else {
			if err := sink.Subscribe(pub.Iface, onEvent); err != nil {
				panic(err)
			}
		}
		if pub.AuxIface != "" {
			if err := sink.Subscribe(pub.AuxIface, func(ev soa.Event) {
				if _, ok := ev.Payload.(int); ok {
					st.auxDelivered++
				}
			}); err != nil {
				panic(err)
			}
		}

		if platformOn {
			inst := p.Node(pub.Home).App(pub.App.Name)
			inst.Behavior = platform.Behavior{OnActivate: func(int64) { publish() }}
			if err := inst.Start(); err != nil {
				panic(err)
			}
		} else {
			phase := sim.Duration(i+1) * 97 * sim.Microsecond
			ref := new(sim.EventRef)
			var tick func()
			tick = func() {
				if k.Now() >= sim.Time(sp.Horizon) {
					return
				}
				publish()
				*ref = k.After(period, tick)
			}
			*ref = k.At(sim.Time(phase), tick)
			tickerRefs = append(tickerRefs, ref)
		}
	}

	// Scheduled endpoint migrations (plain scenarios).
	for _, mig := range sp.Migrations {
		mig := mig
		k.At(sim.Time(mig.At), func() {
			if ep := mw.EndpointOf(mig.App); ep != nil {
				ep.Migrate(mig.To)
			}
		})
	}

	// Mesh tier.
	var ms *soa.Mesh
	if sp.Mesh != nil {
		m := sp.Mesh
		ms = soa.NewMesh(mw, m.Config)
		for i, e := range sp.ECUs {
			zone := "front"
			if i%2 == 1 {
				zone = "rear"
			}
			ms.SetZone(e.Name, zone)
		}
		ms.SetZone("cliF", "front")
		ms.SetZone("cliR", "rear")
		for _, svc := range m.Services {
			svc := svc
			for r, home := range svc.Homes {
				ep := mw.Endpoint(fmt.Sprintf("%s-r%d", svc.Name, r), home)
				ms.Offer(ep, svc.Name, soa.OfferOpts{
					Network: sp.Backbone.Name, Class: network.ClassPriority,
					Handler: func(any) (int, any, sim.Duration) { return 64, "ok", svc.Proc },
				})
			}
		}
		daPol := soa.RetryPolicy{MaxAttempts: 3, Backoff: 4 * sim.Millisecond,
			MaxBackoff: 16 * sim.Millisecond, JitterFrac: 0.2,
			Budget: 100 * sim.Millisecond}
		bePol := soa.RetryPolicy{MaxAttempts: 2, Backoff: 4 * sim.Millisecond,
			MaxBackoff: 8 * sim.Millisecond, JitterFrac: 0.2,
			Budget: 200 * sim.Millisecond}
		clients := map[string]*soa.Endpoint{
			"cliF": mw.Endpoint("cli-front", "cliF"),
			"cliR": mw.Endpoint("cli-rear", "cliR"),
		}
		for si, stream := range m.Streams {
			stream := stream
			cl := clients[stream.Client]
			if cl == nil {
				panic(fmt.Sprintf("fuzz: stream client %q unknown", stream.Client))
			}
			pol := bePol
			crit := stream.Crit
			if crit >= soa.CritASILD {
				pol = daPol
			}
			interval := sim.Second / sim.Duration(stream.Rate)
			phase := sim.Duration(si+1) * 73 * sim.Microsecond
			ref := new(sim.EventRef)
			var tick func()
			tick = func() {
				if k.Now() >= sim.Time(sp.Horizon) {
					return
				}
				err := ms.Call(cl, stream.Service, soa.MeshCallOpts{
					Criticality: crit, ReqBytes: 48,
					PerTry: 25 * sim.Millisecond, Retry: pol,
				}, func(soa.Event) {}, nil)
				if err != nil {
					panic(err)
				}
				*ref = k.After(interval, tick)
			}
			*ref = k.At(sim.Time(phase), tick)
			tickerRefs = append(tickerRefs, ref)
		}
	}

	// Fault campaign.
	var camp *faults.Campaign
	var babbler *faults.Babbler
	if sp.Campaign != nil {
		camp = faults.NewCampaign(k, faults.Spec{
			Seed:        sp.Seed ^ 0xC0FFEE,
			Horizon:     sp.Horizon,
			MTBF:        sp.Campaign.MTBF,
			RepairMean:  sp.Campaign.RepairMean,
			RebootDelay: sp.Campaign.RebootDelay,
			Weights:     sp.Campaign.Weights,
		})
		hostExcluded := ""
		if sp.Update != nil {
			// The OTA host stays healthy: rollback identity is then a
			// pure function of the update machinery, not of whichever
			// fault happened to hit the host mid-update.
			hostExcluded = sp.Pubs[0].Home
		}
		for _, e := range sp.ECUs {
			if e.Name == hostExcluded {
				continue
			}
			if platformOn {
				camp.AddTarget(e.Name, p.Node(e.Name))
			} else {
				camp.AddTarget(e.Name, faults.PassiveTarget{})
			}
		}
		for _, nf := range nets {
			camp.AddNetwork(nf)
		}
		if ms != nil && sp.Mesh.Evict {
			camp.HookECULifecycle(ms.ECULifecycle())
		}
		if bb := sp.Campaign.Babble; bb != nil {
			babbler = nets[0].StartBabble("bbl", bb.ID,
				network.ClassPriority, bb.Bytes, bb.Period)
		}
		camp.Start()
	}

	// Staged-verified update tier (property 5a: rollback byte-identity).
	var updRep update.Report
	updDone := false
	if sp.Update != nil {
		us := *sp.Update
		target := &sp.Pubs[0]
		node := p.Node(target.Home)
		mgr := update.NewManager(p, mw)
		// Seed persistent state so the sync and drop paths do real work.
		logical := target.App.Name
		node.Store().Put(logical, "calibration", []byte("v1-tables"))
		node.Store().Put(logical, "odometer", []byte("42"))

		newName := logical + "@2"
		ifaces := []string{target.Iface}
		offers := []update.Offers{{Iface: target.Iface,
			Opts: soa.OfferOpts{Network: sp.Backbone.Name,
				Class: network.ClassControl, Version: 2}}}
		if target.AuxIface != "" {
			ifaces = append(ifaces, target.AuxIface)
			offers = append(offers, update.Offers{Iface: target.AuxIface,
				Opts: soa.OfferOpts{Network: sp.Aux.Name,
					Class: network.ClassPriority, Version: 2}})
		}
		if us.ExtraIface {
			ifaces = append(ifaces, logical+".v2extra")
			offers = append(offers, update.Offers{Iface: logical + ".v2extra",
				Opts: soa.OfferOpts{Network: sp.Backbone.Name,
					Class: network.ClassPriority, Version: 2}})
		}
		v2 := target.App
		v2.Version = 2
		behavior := platform.Behavior{OnActivate: func(int64) {
			idx, ok := pubs[0].probe.Index(k.Now())
			if !ok {
				return
			}
			ep := mw.Endpoint(newName, target.Home)
			if target.Reliable {
				ep.PublishSeq(target.Iface, target.Payload, idx)
			} else {
				ep.Publish(target.Iface, target.Payload, idx)
			}
		}}
		verify := func() error {
			if us.Bad {
				return fmt.Errorf("soak regression: bad image")
			}
			return nil
		}
		k.At(sim.Time(sp.Horizon/3), func() {
			pre := updateStateFingerprint(p, mw, mgr, logical, newName, ifaces)
			err := mgr.Staged(logical, v2, behavior, offers, sp.Horizon/6,
				verify, func(rp update.Report) {
					updRep, updDone = rp, true
					if rp.RolledBack {
						post := updateStateFingerprint(p, mw, mgr, logical, newName, ifaces)
						if post != pre {
							violate(PropRollback,
								"update rollback state differs from pre-update:\n--- pre ---\n%s--- post ---\n%s",
								pre, post)
						}
					}
				})
			if err != nil {
				panic(fmt.Sprintf("fuzz: staged update: %v", err))
			}
		})
	}

	// Reconfig tier (property 5b: model rollback byte-identity under
	// injected install failure).
	var orc *reconfig.Orchestrator
	var adm *model.System
	var initialModel []byte
	if sp.Reconfig != nil {
		// The admission model is the vehicle's ECUs, apps and placement.
		// Admission needs no networks here (no app declares interfaces),
		// and leaving them out keeps the fingerprint's modelhash to the
		// state that recoveries change.
		adm = &model.System{Name: sys.Name, ECUs: sys.ECUs, Apps: sys.Apps, Placement: sys.Placement}
		for _, n := range sp.Reconfig.NDAs {
			if err := p.Node(n.Home).App(n.App.Name).Start(); err != nil {
				panic(err)
			}
		}
		if sp.Reconfig.InjectInstallFail {
			// Ghost apps: physically resident, invisible to the model.
			// Admission then approves moves whose physical install must
			// fail — every recovery is forced down the rollback path.
			for _, e := range sp.ECUs {
				node := p.Node(e.Name)
				free := e.MemoryKB - node.Memory().CommittedKB()
				if free <= 0 {
					continue
				}
				inst, err := node.Install(model.App{Name: "ghost-" + e.Name,
					Kind: model.NonDeterministic, ASIL: model.QM, MemoryKB: free},
					platform.Behavior{})
				if err != nil {
					panic(fmt.Sprintf("fuzz: ghost install: %v", err))
				}
				if err := inst.Start(); err != nil {
					panic(err)
				}
			}
			// Only the rollback audit reads the initial model.
			var err error
			if initialModel, err = model.MarshalJSONSystem(adm); err != nil {
				panic(err)
			}
		}
		ctrl := admission.NewController(adm)
		orc = reconfig.New(p, ctrl, reconfig.Config{
			CheckPeriod:      2 * sim.Millisecond,
			SilenceThreshold: 25 * sim.Millisecond,
			ReplanDelay:      sim.Millisecond,
			SettleTimeout:    100 * sim.Millisecond,
		})
		ecuNames := make([]string, 0, len(sp.ECUs))
		for _, e := range sp.ECUs {
			ecuNames = append(ecuNames, e.Name)
		}
		if err := orc.Watch(ecuNames...); err != nil {
			panic(err)
		}
		orc.Start()
	}

	// Run to the post-horizon tail, then audit the closed accounts
	// (property 3) while everything is still wired.
	tq := sim.Time(sp.Horizon + runTail)
	if camp != nil {
		if q := camp.QuiesceAt().Add(50 * sim.Millisecond); q > tq {
			tq = q
		}
	}
	k.RunUntil(tq)

	if ms != nil {
		if !ms.Conserved() {
			violate(PropConservation,
				"mesh account open at tail: offered=%d served=%d shed=%d dead=%d outstanding=%d",
				ms.Offered, ms.Served, ms.Shed, ms.DeadLettered, ms.Outstanding())
		}
		if ms.ShedProtected != 0 {
			violate(PropConservation, "%d protected-criticality calls shed", ms.ShedProtected)
		}
	}

	// Teardown: stop supervision, apps, the babbler, and every endpoint,
	// then let the kernel drain. Anything still live afterwards is a
	// leaked timer (property 4).
	if orc != nil {
		orc.Stop()
	}
	if platformOn {
		for _, ecuName := range p.Nodes() {
			node := p.Node(ecuName)
			for _, app := range node.Apps() {
				node.App(app).Stop()
			}
		}
	}
	if babbler != nil {
		babbler.Stop()
	}
	for _, ref := range tickerRefs {
		ref.Cancel()
	}
	deadBefore := mw.DeadLetters
	for _, app := range mw.Endpoints() {
		mw.RemoveEndpoint(app)
	}
	k.RunUntil(tq.Add(quiesceSettle))

	leaked := k.QueueLen()
	if ms != nil && !ms.Conserved() {
		violate(PropQuiesce,
			"mesh account drifted across teardown: offered=%d served=%d shed=%d dead=%d outstanding=%d",
			ms.Offered, ms.Served, ms.Shed, ms.DeadLettered, ms.Outstanding())
	}
	if leaked != 0 {
		// Step the leaked events to timestamp them — the fire times
		// usually name the guilty subsystem. This runs after every other
		// audit and fingerprint input has been captured.
		var fired []string
		for i := 0; i < 8 && k.QueueLen() > 0; i++ {
			k.Step()
			fired = append(fired, fmt.Sprint(k.Now()))
		}
		violate(PropQuiesce, "%d kernel events still live %v after teardown (fire times: %s)",
			leaked, quiesceSettle, strings.Join(fired, ", "))
	}

	// Reconfig rollback audit (property 5b).
	var finalModel []byte
	if orc != nil {
		var err error
		finalModel, err = model.MarshalJSONSystem(adm)
		if err != nil {
			panic(err)
		}
		allRolledBack := true
		for i, rec := range orc.Recoveries {
			if rec.RolledBack {
				if len(rec.Moves)+len(rec.Sheds)+len(rec.Stranded) != 0 {
					violate(PropRollback,
						"rolled-back recovery %d (%s) kept %d moves / %d sheds / %d stranded",
						i, rec.ECU, len(rec.Moves), len(rec.Sheds), len(rec.Stranded))
				}
				continue
			}
			if len(rec.Moves)+len(rec.Sheds)+len(rec.Stranded) > 0 {
				allRolledBack = false
			}
		}
		if sp.Reconfig.InjectInstallFail {
			if allRolledBack && len(orc.Rebalances) == 0 &&
				!bytes.Equal(finalModel, initialModel) {
				violate(PropRollback,
					"model changed although every recovery rolled back:\n--- before ---\n%s\n--- after ---\n%s",
					initialModel, finalModel)
			}
		} else {
			for i, rec := range orc.Recoveries {
				if rec.RolledBack {
					violate(PropRollback,
						"recovery %d (%s) rolled back with no install failure injected: model/platform drift",
						i, rec.ECU)
				}
			}
		}
	}

	// Fingerprint: every application-visible outcome, rendered
	// deterministically. Kernel internals and obs state are excluded on
	// purpose — the same fingerprint must come out of plain and fully
	// observed runs.
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz spec seed=%d v=%d horizon=%v\n", sp.Seed, sp.Version, sp.Horizon)
	for i, pub := range sp.Pubs {
		st := pubs[i]
		fmt.Fprintf(&b, "pub %s: published=%d delivered=%d aux=%d misses=%d bitmap=%x",
			pub.App.Name, st.published, st.delivered, st.auxDelivered, st.misses,
			bitmapHash(st.probe))
		if st.rel != nil {
			fmt.Fprintf(&b, " gaps=%d missing=%d recovered=%d unrecoverable=%d",
				st.rel.Gaps, st.rel.Missing, st.rel.Recovered, st.rel.Unrecoverable)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "mw: dead=%d qosmiss=%d stale=%d denied=%d retry=%d/%d/%d seqgaps=%d rec=%d unrec=%d\n",
		mw.DeadLetters, mw.QoSDeadlineMisses, mw.StalePublishes, mw.DeniedBindings,
		mw.RetryAttempts, mw.RetryRecovered, mw.RetryExhausted,
		mw.SeqGaps, mw.GapEventsRecovered, mw.GapEventsUnrecoverable)
	fmt.Fprintf(&b, "teardown dead-letters=%d\n", mw.DeadLetters-deadBefore)
	for _, svc := range mw.Services() {
		prov, ver, _ := mw.Find(svc)
		fmt.Fprintf(&b, "svc %s provider=%s v%d\n", svc, prov, ver)
	}
	fmt.Fprintf(&b, "attach: %s\n", strings.Join(mw.AttachOrder(), ","))
	for i, nf := range nets {
		fmt.Fprintf(&b, "net %d: dropped=%d corrupted=%d corruptdrop=%d blocked=%d babble=%d passed=%d\n",
			i, nf.FramesDropped, nf.FramesCorrupted, nf.CorruptDropped,
			nf.FramesBlocked, nf.BabbleFrames, nf.Passed)
	}
	if ms != nil {
		fmt.Fprintf(&b, "mesh: offered=%d served=%d shed=%d dead=%d prot=%d timeouts=%d retries=%d reroutes=%d trips=%d conserved=%v\n",
			ms.Offered, ms.Served, ms.Shed, ms.DeadLettered, ms.ShedProtected,
			ms.Timeouts, ms.Retries, ms.Reroutes, ms.BreakerTrips, ms.Conserved())
		for _, svc := range sp.Mesh.Services {
			for _, stat := range ms.InstanceStats(svc.Name) {
				fmt.Fprintf(&b, "inst %s@%s: dispatched=%d pending=%d\n",
					stat.App, stat.ECU, stat.Dispatched, stat.Pending)
			}
		}
	}
	if camp != nil {
		var lh = fnv.New64a()
		for _, r := range camp.Log {
			lh.Write([]byte(r.String()))
			lh.Write([]byte{'\n'})
		}
		fmt.Fprintf(&b, "campaign: injections=%d skipped=%d log=%d loghash=%x\n",
			camp.Injections(), camp.Skipped, len(camp.Log), lh.Sum64())
	}
	if sp.Update != nil {
		fmt.Fprintf(&b, "update: done=%v rolledback=%v from=%d to=%d synced=%d stamps=%d active=\n",
			updDone, updRep.RolledBack, updRep.From, updRep.To,
			updRep.SyncedKeys, len(updRep.Stamps))
	}
	if orc != nil {
		rolled, shed, stranded := 0, 0, 0
		for _, rec := range orc.Recoveries {
			if rec.RolledBack {
				rolled++
			}
			shed += len(rec.Sheds)
			stranded += len(rec.Stranded)
		}
		fmt.Fprintf(&b, "reconfig: recoveries=%d rolledback=%d shed=%d stranded=%d rebalances=%d modelhash=%x\n",
			len(orc.Recoveries), rolled, shed, stranded, len(orc.Rebalances),
			byteHash(finalModel))
	}
	fmt.Fprintf(&b, "quiesce: leaked=%d\n", leaked)
	res.fingerprint = b.String()
	return res
}

// vehicleModel returns the model of sp's vehicle: its buses and, with
// platform set, its ECUs and placed apps. The system holds copies of the
// spec's model values, because admission and reconfig mutate it and
// every run of a spec starts from the same spec.
func vehicleModel(sp Spec, platform bool) *model.System {
	sys := model.NewSystem("fuzz-vehicle")
	backbone := sp.Backbone
	sys.Networks = append(sys.Networks, &backbone)
	if sp.Aux != nil {
		aux := *sp.Aux
		sys.Networks = append(sys.Networks, &aux)
	}
	if !platform {
		return sys
	}
	for _, e := range sp.ECUs {
		sys.ECUs = append(sys.ECUs, &e)
	}
	place := func(pa Placed) {
		sys.Apps = append(sys.Apps, &pa.App)
		sys.Placement[pa.App.Name] = pa.Home
	}
	for _, pub := range sp.Pubs {
		place(pub.Placed)
	}
	if sp.Reconfig != nil {
		for _, n := range sp.Reconfig.NDAs {
			place(n)
		}
	}
	return sys
}

// updateStateFingerprint renders the update-scoped externally visible
// state: the logical app and its staged twin, the host's committed
// memory, the persistence store, endpoint registry, service discovery
// for the campaign's interfaces, and the active-version map. Rollback
// must leave this byte-identical to the pre-update capture.
func updateStateFingerprint(p *platform.Platform, mw *soa.Middleware,
	mgr *update.Manager, logical, newName string, ifaces []string) string {

	var b strings.Builder
	var host *platform.Node
	for _, name := range []string{logical, newName} {
		inst, node := p.FindApp(name)
		if inst == nil {
			fmt.Fprintf(&b, "app %s: absent\n", name)
			continue
		}
		if name == logical {
			host = node
		}
		fmt.Fprintf(&b, "app %s: v%d state=%v mem=%d\n",
			name, inst.Spec.Version, inst.State, inst.Spec.MemoryKB)
	}
	if host != nil {
		fmt.Fprintf(&b, "committed=%dKB\n", host.Memory().CommittedKB())
		for _, app := range []string{logical, newName} {
			for _, key := range host.Store().Keys(app) {
				v, _ := host.Store().Get(app, key)
				fmt.Fprintf(&b, "store %s/%s=%q\n", app, key, v)
			}
		}
	}
	for _, app := range []string{logical, newName} {
		fmt.Fprintf(&b, "endpoint %s: %v\n", app, mw.EndpointOf(app) != nil)
	}
	for _, iface := range ifaces {
		prov, ver, err := mw.Find(iface)
		if err != nil {
			fmt.Fprintf(&b, "iface %s: absent\n", iface)
			continue
		}
		fmt.Fprintf(&b, "iface %s: provider=%s v%d\n", iface, prov, ver)
	}
	fmt.Fprintf(&b, "active=%s\n", mgr.InstanceName(logical))
	return b.String()
}

// bitmapHash hashes a probe's delivery bitmap: one byte per period, 1 if
// marked and 0 if not.
func bitmapHash(p *vehicle.Probe) uint64 {
	h := fnv.New64a()
	for i := 0; i < p.Periods(); i++ {
		h.Write([]byte{byte(p.Hits(i, i+1))})
	}
	return h.Sum64()
}

// byteHash hashes an artifact.
func byteHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
