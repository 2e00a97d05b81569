package soa

import (
	"fmt"
	"testing"

	"dynaplat/internal/faults"
	"dynaplat/internal/sim"
	"dynaplat/internal/tsn"
)

// Service-mesh tests: balancing policies, the breaker state machine
// (including migration while the edge is open), criticality-ordered
// shedding with conservation, campaign-driven eviction of dead
// instances, and the per-session retry-jitter streams.

type meshRig struct {
	k     *sim.Kernel
	mw    *Middleware
	ms    *Mesh
	dn    *dropNet
	cli   *Endpoint
	provs []*Endpoint
	// runsAt logs (app, ECU at execution time) per handler run.
	runsAt []string
}

// newMeshRig builds a mesh with one provider instance of "svc.echo" per
// entry of execs (prov-a on ecu-a with execs[0], prov-b on ecu-b with
// execs[1], ...) and a client on ecu-cli, all on one TSN backbone behind
// a dropNet for loss injection.
func newMeshRig(seed uint64, cfg MeshConfig, execs []sim.Duration) *meshRig {
	k := sim.NewKernel(seed)
	dn := &dropNet{
		inner:   tsn.New(k, tsn.DefaultConfig("backbone")),
		dropDst: map[string]bool{},
	}
	mw := New(k, nil)
	mw.AddNetwork(dn, 1400)
	r := &meshRig{k: k, mw: mw, dn: dn, ms: NewMesh(mw, cfg)}
	r.cli = mw.Endpoint("client", "ecu-cli")
	for i, exec := range execs {
		app := fmt.Sprintf("prov-%c", 'a'+i)
		ep := mw.Endpoint(app, fmt.Sprintf("ecu-%c", 'a'+i))
		app, exec := app, exec
		r.ms.Offer(ep, "svc.echo", OfferOpts{Network: "backbone",
			Handler: func(any) (int, any, sim.Duration) {
				r.runsAt = append(r.runsAt, app+"@"+ep.ECU())
				return 16, app, exec
			}})
		r.provs = append(r.provs, ep)
	}
	return r
}

func (r *meshRig) opts(crit Criticality, perTry sim.Duration, pol RetryPolicy) MeshCallOpts {
	return MeshCallOpts{Criticality: crit, ReqBytes: 32, PerTry: perTry, Retry: pol}
}

// onceOnly is a single-attempt policy for tests that must not retry.
func onceOnly() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

// TestMeshRoundRobinDistribution: round-robin spreads sequential calls
// evenly over the replicas in sorted instance order.
func TestMeshRoundRobinDistribution(t *testing.T) {
	r := newMeshRig(3, MeshConfig{Policy: PolicyRoundRobin},
		[]sim.Duration{200 * sim.Microsecond, 200 * sim.Microsecond, 200 * sim.Microsecond})
	served := 0
	for i := 0; i < 9; i++ {
		i := i
		r.k.At(sim.Time(sim.Duration(i)*5*sim.Millisecond), func() {
			err := r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 20*sim.Millisecond, onceOnly()),
				func(Event) { served++ }, nil)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		})
	}
	r.k.Run()
	if served != 9 {
		t.Fatalf("served = %d, want 9", served)
	}
	for _, st := range r.ms.InstanceStats("svc.echo") {
		if st.Dispatched != 3 {
			t.Errorf("instance %s dispatched %d, want 3 (round-robin)", st.App, st.Dispatched)
		}
	}
	if !r.ms.Conserved() {
		t.Error("conservation violated")
	}
}

// TestMeshLeastPendingAvoidsBusyInstance: with one replica stuck in a
// long execution, least-pending steers every subsequent call to an idle
// replica — round-robin would keep feeding the busy one.
func TestMeshLeastPendingAvoidsBusyInstance(t *testing.T) {
	r := newMeshRig(3, MeshConfig{Policy: PolicyLeastPending, Concurrency: 1},
		[]sim.Duration{50 * sim.Millisecond, sim.Millisecond, sim.Millisecond})
	served := 0
	for i := 0; i < 8; i++ {
		r.k.At(sim.Time(sim.Duration(i)*5*sim.Millisecond), func() {
			_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 100*sim.Millisecond, onceOnly()),
				func(Event) { served++ }, nil)
		})
	}
	r.k.Run()
	if served != 8 {
		t.Fatalf("served = %d, want 8", served)
	}
	st := r.ms.InstanceStats("svc.echo")
	if st[0].Dispatched != 1 {
		t.Errorf("busy instance %s dispatched %d, want exactly the first call "+
			"(least-pending must avoid it; round-robin would send ~3)", st[0].App, st[0].Dispatched)
	}
	if st[1].Dispatched+st[2].Dispatched != 7 {
		t.Errorf("idle instances dispatched %d+%d, want 7 total",
			st[1].Dispatched, st[2].Dispatched)
	}
}

// TestMeshZoneLocalRouting: zone-local keeps calls inside the caller's
// zone while a local replica is healthy and crosses zones — counted —
// only when the zone is dark.
func TestMeshZoneLocalRouting(t *testing.T) {
	r := newMeshRig(5, MeshConfig{Policy: PolicyZoneLocal},
		[]sim.Duration{200 * sim.Microsecond, 200 * sim.Microsecond})
	r.ms.SetZone("ecu-a", "front")
	r.ms.SetZone("ecu-b", "rear")
	r.ms.SetZone("ecu-cli", "front")

	served := 0
	call := func(at sim.Duration) {
		r.k.At(sim.Time(at), func() {
			_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 20*sim.Millisecond, onceOnly()),
				func(Event) { served++ }, nil)
		})
	}
	for _, at := range []sim.Duration{0, 5, 10, 15} {
		call(at * sim.Millisecond)
	}
	r.k.At(sim.Time(20*sim.Millisecond), func() { r.ms.MarkECUDown("ecu-a", true) })
	for _, at := range []sim.Duration{25, 30, 35} {
		call(at * sim.Millisecond)
	}
	r.k.At(sim.Time(40*sim.Millisecond), func() { r.ms.MarkECUDown("ecu-a", false) })
	call(45 * sim.Millisecond)
	r.k.Run()

	if served != 8 {
		t.Fatalf("served = %d, want 8", served)
	}
	st := r.ms.InstanceStats("svc.echo")
	if st[0].Dispatched != 5 || st[1].Dispatched != 3 {
		t.Errorf("dispatched = %d/%d, want 5 zone-local + 3 cross-zone fallbacks",
			st[0].Dispatched, st[1].Dispatched)
	}
	if got := r.ms.CrossZone("svc.echo"); got != 3 {
		t.Errorf("CrossZone = %d, want 3 (only the calls during the outage)", got)
	}
}

// edgeBreaker returns the breaker of client's edge to app's instance of
// the logical service iface, or nil if none was created.
func (ms *Mesh) edgeBreaker(client, iface, app string) *Breaker {
	for _, inst := range ms.svcs[iface].insts {
		if inst.app == app {
			return ms.breakers[edge{client, inst}]
		}
	}
	return nil
}

// TestMeshBreakerLifecycle walks the full state machine on one
// client→instance edge: closed, tripped open by the failure window,
// half-open on the cool-down timer, and re-closed by a successful
// probe — with dead-letter accounting for the calls the open edge
// rejected.
func TestMeshBreakerLifecycle(t *testing.T) {
	bc := BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: 20 * sim.Millisecond}
	r := newMeshRig(7, MeshConfig{Breaker: &bc}, []sim.Duration{200 * sim.Microsecond})
	r.dn.dropDst["ecu-a"] = true // requests to the only instance vanish

	var fails []FailReason
	served := 0
	// Call 1: two attempts burn timeouts (failures #1 and #2 → trip at
	// 6 ms), the third finds no eligible instance and dead-letters.
	_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 2*sim.Millisecond, noJitterPolicy()),
		func(Event) { served++ }, func(fr FailReason) { fails = append(fails, fr) })
	// Call 2 arrives while the edge is open: immediate dead-letter,
	// without touching the dead instance.
	r.k.At(sim.Time(8*sim.Millisecond), func() {
		_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 2*sim.Millisecond, onceOnly()),
			func(Event) { served++ }, func(fr FailReason) { fails = append(fails, fr) })
	})
	r.k.At(sim.Time(11*sim.Millisecond), func() {
		if st := r.ms.edgeBreaker("client", "svc.echo", "prov-a").State(); st != BreakerOpen {
			t.Errorf("state at 11ms = %v, want open", st)
		}
	})
	r.k.At(sim.Time(15*sim.Millisecond), func() { delete(r.dn.dropDst, "ecu-a") })
	r.k.At(sim.Time(27*sim.Millisecond), func() {
		if st := r.ms.edgeBreaker("client", "svc.echo", "prov-a").State(); st != BreakerHalfOpen {
			t.Errorf("state at 27ms = %v, want half-open", st)
		}
	})
	// Call 3 is the half-open probe: the wire is healed, so it closes
	// the breaker and is served.
	r.k.At(sim.Time(30*sim.Millisecond), func() {
		_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 2*sim.Millisecond, onceOnly()),
			func(Event) { served++ }, func(fr FailReason) { fails = append(fails, fr) })
	})
	r.k.Run()

	br := r.ms.edgeBreaker("client", "svc.echo", "prov-a")
	if br == nil {
		t.Fatal("no breaker created for the edge")
	}
	if br.State() != BreakerClosed || br.Trips() != 1 {
		t.Errorf("final state=%v trips=%d, want closed after 1 trip", br.State(), br.Trips())
	}
	if samples, _ := br.Window(); samples != 0 {
		t.Errorf("window samples = %d, want 0 (reset on close)", samples)
	}
	if served != 1 || len(fails) != 2 ||
		fails[0] != FailDeadLetter || fails[1] != FailDeadLetter {
		t.Errorf("served=%d fails=%v, want 1 served + 2 dead-letters", served, fails)
	}
	if r.ms.BreakerTrips != 1 || r.ms.Timeouts != 2 || r.ms.DeadLettered != 2 {
		t.Errorf("trips=%d timeouts=%d dead=%d, want 1/2/2",
			r.ms.BreakerTrips, r.ms.Timeouts, r.ms.DeadLettered)
	}
	if st := r.ms.InstanceStats("svc.echo"); st[0].Dispatched != 3 {
		t.Errorf("dispatched = %d, want 3 (two timed-out attempts + the probe; "+
			"the open window must not dispatch)", st[0].Dispatched)
	}
	if !r.ms.Conserved() {
		t.Error("conservation violated")
	}
}

// TestMeshMigrateWhileBreakerOpen: the provider migrates while its edge
// is open. The breaker is keyed by application identity, so the edge
// keeps its object, window and trip count across the move, and the
// half-open probe is delivered to the instance's new home.
func TestMeshMigrateWhileBreakerOpen(t *testing.T) {
	bc := BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: 20 * sim.Millisecond}
	r := newMeshRig(11, MeshConfig{Breaker: &bc}, []sim.Duration{200 * sim.Microsecond})
	r.dn.dropDst["ecu-a"] = true

	_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 2*sim.Millisecond, noJitterPolicy()),
		nil, nil) // trips the edge at 6 ms, dead-letters at 10 ms
	var before *Breaker
	r.k.At(sim.Time(12*sim.Millisecond), func() {
		before = r.ms.edgeBreaker("client", "svc.echo", "prov-a")
		if before.State() != BreakerOpen {
			t.Errorf("state at migration = %v, want open", before.State())
		}
		r.provs[0].Migrate("ecu-z") // ecu-z is not dropped
	})
	var got []Event
	r.k.At(sim.Time(30*sim.Millisecond), func() {
		_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 5*sim.Millisecond, onceOnly()),
			func(ev Event) { got = append(got, ev) }, nil)
	})
	r.k.Run()

	after := r.ms.edgeBreaker("client", "svc.echo", "prov-a")
	if after != before {
		t.Fatal("migration replaced the breaker object; edge state must survive the move")
	}
	if after.State() != BreakerClosed || after.Trips() != 1 {
		t.Errorf("state=%v trips=%d, want closed with the pre-migration trip kept",
			after.State(), after.Trips())
	}
	if len(got) != 1 {
		t.Fatalf("probe served %d calls, want 1", len(got))
	}
	if len(r.runsAt) != 1 || r.runsAt[0] != "prov-a@ecu-z" {
		t.Errorf("handler runs = %v, want exactly one at the new home ecu-z", r.runsAt)
	}
	if !r.mw.attached("backbone", "ecu-z") {
		t.Error("probe did not attach the instance's new station")
	}
	if !r.ms.Conserved() {
		t.Error("conservation violated")
	}
}

// TestMeshShedOrderingAndConservation: a full queue sheds strictly
// lowest-criticality-first, never sheds protected ASIL-D (admitting it
// beyond the bound instead), and the admission account balances.
func TestMeshShedOrderingAndConservation(t *testing.T) {
	r := newMeshRig(13, MeshConfig{QueueDepth: 2, Concurrency: 1},
		[]sim.Duration{10 * sim.Millisecond})
	outcome := map[int]string{}
	call := func(idx int, crit Criticality) {
		err := r.ms.Call(r.cli, "svc.echo", r.opts(crit, 200*sim.Millisecond, onceOnly()),
			func(Event) { outcome[idx] = "served" },
			func(fr FailReason) { outcome[idx] = fr.String() })
		if err != nil {
			t.Fatalf("call %d: %v", idx, err)
		}
	}
	// All at t=0: 1 dispatches, 2..3 fill the queue, then each arrival
	// forces an admission decision against the full queue.
	call(1, CritQM)    // dispatched
	call(2, CritQM)    // queued; later evicted by 4
	call(3, CritQM)    // queued; later evicted by 5
	call(4, CritASILB) // evicts 2 (oldest QM); later evicted by 6
	call(5, CritASILD) // evicts 3
	call(6, CritASILD) // evicts 4 (ASIL-B < D)
	call(7, CritASILD) // no victim below D: protected, admitted beyond bound
	call(8, CritQM)    // no victim, unprotected: shed on arrival
	r.k.Run()

	want := map[int]string{
		1: "served", 2: "shed", 3: "shed", 4: "shed",
		5: "served", 6: "served", 7: "served", 8: "shed",
	}
	for idx, w := range want {
		if outcome[idx] != w {
			t.Errorf("call %d = %q, want %q", idx, outcome[idx], w)
		}
	}
	if r.ms.Shed != 4 || r.ms.ShedByCrit[CritQM] != 3 || r.ms.ShedByCrit[CritASILB] != 1 {
		t.Errorf("shed=%d byCrit QM=%d B=%d, want 4/3/1",
			r.ms.Shed, r.ms.ShedByCrit[CritQM], r.ms.ShedByCrit[CritASILB])
	}
	if r.ms.ShedByCrit[CritASILD] != 0 || r.ms.ShedProtected != 0 {
		t.Errorf("protected sheds = %d/%d, want none ever",
			r.ms.ShedByCrit[CritASILD], r.ms.ShedProtected)
	}
	if r.ms.Offered != 8 || r.ms.Served != 4 || r.ms.DeadLettered != 0 {
		t.Errorf("offered=%d served=%d dead=%d, want 8/4/0",
			r.ms.Offered, r.ms.Served, r.ms.DeadLettered)
	}
	if !r.ms.Conserved() {
		t.Error("offered != served + shed + dead-lettered at quiescence")
	}
}

// fakeTarget is a minimal faults.Target for campaign-driven tests.
type fakeTarget struct{ down bool }

func (f *fakeTarget) Crash() []string     { f.down = true; return nil }
func (f *fakeTarget) Restore([]string)    { f.down = false }
func (f *fakeTarget) SetHung(bool)        {}
func (f *fakeTarget) SetSlowdown(float64) {}

// TestMeshCampaignEvictsCrashedProviders is the regression test for
// discovery listing providers on crashed ECUs: a campaign crash must
// evict the ECU's instances at the exact injection instant — service
// discovery times out instead of returning the stale listing, and the
// balancer stops dispatching there — and the repair re-admits them.
// Before the eviction fix, the mid-outage Discover returned the dead
// provider (Found=true), failing this test.
func TestMeshCampaignEvictsCrashedProviders(t *testing.T) {
	r := newMeshRig(17, MeshConfig{Policy: PolicyRoundRobin},
		[]sim.Duration{200 * sim.Microsecond, 200 * sim.Microsecond})
	camp := faults.NewCampaign(r.k, faults.Spec{
		Seed: 41, Horizon: 300 * sim.Millisecond,
		MTBF: 80 * sim.Millisecond, RepairMean: 40 * sim.Millisecond,
		Weights: faults.Weights{Crash: 1},
	})
	camp.AddTarget("ecu-a", &fakeTarget{})
	camp.HookECULifecycle(r.ms.ECULifecycle())
	camp.Start()
	if len(camp.Schedule) == 0 {
		t.Fatal("campaign drew no injections; pick another seed")
	}
	inj := camp.Schedule[0]
	if inj.RepairAt == 0 || inj.RepairAt.Sub(inj.At) < 10*sim.Millisecond {
		t.Fatalf("first outage %v..%v too short for the probes; pick another seed",
			inj.At, inj.RepairAt)
	}
	if len(camp.Schedule) > 1 && camp.Schedule[1].At < inj.RepairAt.Add(20*sim.Millisecond) {
		t.Fatalf("second injection at %v overlaps the probe window; pick another seed",
			camp.Schedule[1].At)
	}

	var midOutage, postRepair DiscoveryResult
	var dispDuringOutage, dispBefore int64
	served := 0
	r.k.At(inj.At.Add(2*sim.Millisecond), func() {
		dispBefore = r.ms.InstanceStats("svc.echo")[0].Dispatched
		r.cli.Discover("svc.echo#prov-a", 5*sim.Millisecond,
			func(res DiscoveryResult) { midOutage = res })
		// Traffic during the outage must route to the survivor.
		_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 20*sim.Millisecond, onceOnly()),
			func(Event) { served++ }, nil)
		_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 20*sim.Millisecond, onceOnly()),
			func(Event) { served++ }, nil)
	})
	r.k.At(inj.At.Add(9*sim.Millisecond), func() {
		dispDuringOutage = r.ms.InstanceStats("svc.echo")[0].Dispatched
	})
	r.k.At(inj.RepairAt.Add(2*sim.Millisecond), func() {
		r.cli.Discover("svc.echo#prov-a", 5*sim.Millisecond,
			func(res DiscoveryResult) { postRepair = res })
		// Two round-robin calls after re-admission: one must land on the
		// repaired instance again.
		_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 20*sim.Millisecond, onceOnly()),
			func(Event) { served++ }, nil)
		_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 20*sim.Millisecond, onceOnly()),
			func(Event) { served++ }, nil)
	})
	r.k.RunUntil(inj.RepairAt.Add(40 * sim.Millisecond))

	if midOutage.Found {
		t.Error("Discover during the outage returned the crashed provider (stale listing)")
	}
	if dispDuringOutage != dispBefore {
		t.Errorf("crashed instance dispatched %d calls during the outage",
			dispDuringOutage-dispBefore)
	}
	if !postRepair.Found || postRepair.Provider != "prov-a" {
		t.Errorf("Discover after repair = %+v, want prov-a re-admitted", postRepair)
	}
	if final := r.ms.InstanceStats("svc.echo")[0].Dispatched; final != dispBefore+1 {
		t.Errorf("repaired instance dispatched %d post-repair calls, want 1 (round-robin)",
			final-dispBefore)
	}
	if served != 4 {
		t.Errorf("served = %d, want all 4 calls (2 rerouted + 2 post-repair)", served)
	}
}

// TestRetryJitterPerSessionStream: retry jitter must come from the
// per-session seeded stream, not the kernel's shared RNG — draining the
// shared RNG between runs must not move a single retry instant. Soaked
// twice to pin the exact virtual completion time.
func TestRetryJitterPerSessionStream(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 6, Backoff: 4 * sim.Millisecond, JitterFrac: 0.5}
	run := func(burn int) sim.Time {
		r := newMigrateRig(29)
		r.dn.dropDst["ecu2"] = true // responses to the client vanish
		for i := 0; i < burn; i++ {
			r.k.RNG().Float64() // perturb the shared stream
		}
		var doneAt sim.Time
		err := r.cli.CallRetry("cfg.get", 32, nil, 2*sim.Millisecond, pol,
			func(Event) { doneAt = r.k.Now() }, func() {})
		if err != nil {
			t.Fatal(err)
		}
		r.k.At(sim.Time(9*sim.Millisecond), func() { delete(r.dn.dropDst, "ecu2") })
		r.k.Run()
		if doneAt == 0 {
			t.Fatal("call never completed; widen the retry policy")
		}
		if r.mw.RetryAttempts == 0 {
			t.Fatal("no retries happened; the jitter path was not exercised")
		}
		return doneAt
	}
	for soak := 0; soak < 2; soak++ {
		base := run(0)
		for _, burn := range []int{1, 17} {
			if got := run(burn); got != base {
				t.Errorf("soak %d: completion at %v after burning %d shared-RNG draws, "+
					"want %v — jitter leaked onto the shared stream", soak, got, burn, base)
			}
		}
	}
}
