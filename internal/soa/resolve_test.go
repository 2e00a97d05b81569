package soa

import (
	"fmt"
	"strings"
	"testing"

	"dynaplat/internal/can"
	"dynaplat/internal/sim"
	"dynaplat/internal/tsn"
)

// Resolved handles: each endpoint remembers the station it last attached
// and each mesh dispatch keeps its edge's breaker. These tests check
// that the handles are invalidated when their binding changes.

// migrateScenario runs a random mix of publishes, RPC calls and
// migrations over a CAN and a TSN network, and returns the attach order
// and the delivery log. With uncached set, every endpoint forgets its
// remembered attachment before each step, so every transfer consults
// the middleware's station set: the reference behaviour.
func migrateScenario(seed uint64, uncached bool) (attach, log string) {
	k := sim.NewKernel(seed)
	mw := New(k, nil)
	mw.AddNetwork(can.New(k, can.Config{Name: "body", BitsPerSecond: 500_000}), can.MaxPayload)
	mw.AddNetwork(tsn.New(k, tsn.DefaultConfig("backbone")), 1400)
	ecus := []string{"ecu0", "ecu1", "ecu2", "ecu3"}
	var eps []*Endpoint
	var ifaces []string
	var b strings.Builder
	for i, net := range []string{"body", "backbone", "body", "backbone"} {
		prov := mw.Endpoint(fmt.Sprintf("prov%d", i), ecus[i])
		iface := fmt.Sprintf("if%d", i)
		prov.Offer(iface, OfferOpts{Network: net,
			Handler: func(any) (int, any, sim.Duration) { return 24, nil, 50 * sim.Microsecond }})
		cons := mw.Endpoint(fmt.Sprintf("cons%d", i), ecus[(i+1)%len(ecus)])
		if err := cons.Subscribe(iface, func(ev Event) {
			fmt.Fprintf(&b, "%s>%s@%s %d\n", ev.Iface, cons.app, cons.ecu, k.Now())
		}); err != nil {
			panic(err)
		}
		eps = append(eps, prov, cons)
		ifaces = append(ifaces, iface)
	}
	rng := sim.NewRNG(seed)
	for step := 0; step < 400; step++ {
		if uncached {
			for _, ep := range eps {
				ep.attNet, ep.attECU = nil, ""
			}
		}
		switch r := rng.Intn(8); {
		case r == 0:
			eps[rng.Intn(len(eps))].Migrate(ecus[rng.Intn(len(ecus))])
		case r == 1:
			caller := eps[rng.Intn(len(eps))]
			iface := ifaces[rng.Intn(len(ifaces))]
			if err := caller.Call(iface, 40, nil, func(ev Event) {
				fmt.Fprintf(&b, "%s<%s@%s %d\n", iface, caller.app, caller.ecu, k.Now())
			}); err != nil {
				panic(err)
			}
		default:
			i := rng.Intn(len(ifaces))
			eps[2*i].Publish(ifaces[i], 8+rng.Intn(60), nil)
		}
		k.RunUntil(k.Now().Add(sim.Duration(rng.Intn(3000)) * sim.Microsecond))
	}
	k.Run()
	return strings.Join(mw.AttachOrder(), " "), b.String()
}

// TestMigrateAttachMatchesUncached: after migrations, transfers attach
// the same stations in the same order and deliver the same events at
// the same instants as the reference that never trusts a remembered
// attachment. A remembered attachment that ignored the ECU would leave
// a migrated endpoint's new station unattached.
func TestMigrateAttachMatchesUncached(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		attach, log := migrateScenario(seed, false)
		refAttach, refLog := migrateScenario(seed, true)
		if attach != refAttach {
			t.Errorf("seed %d: attach order\n%s\nwant\n%s", seed, attach, refAttach)
		}
		if log != refLog {
			t.Errorf("seed %d: deliveries differ from the uncached reference (%d vs %d bytes)",
				seed, len(log), len(refLog))
		}
		if strings.Count(log, "\n") < 100 {
			t.Errorf("seed %d: only %d deliveries; the scenario exercises too little", seed, strings.Count(log, "\n"))
		}
	}
}

// TestBreakerPerClientEdge: two clients of one instance get distinct
// breakers, and each client's attempts land on its own. Responses to
// the first client are lost, so its edge trips; the second client's
// calls are all served and its edge stays closed with a clean window.
func TestBreakerPerClientEdge(t *testing.T) {
	bc := BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: 100 * sim.Millisecond}
	r := newMeshRig(5, MeshConfig{Breaker: &bc}, []sim.Duration{200 * sim.Microsecond})
	cli2 := r.mw.Endpoint("client2", "ecu-c2")
	r.dn.dropDst["ecu-cli"] = true
	served2 := 0
	_ = r.ms.Call(r.cli, "svc.echo", r.opts(CritQM, 2*sim.Millisecond, noJitterPolicy()), nil, nil)
	for i := 0; i < 3; i++ {
		r.k.At(sim.Time(20+5*i)*sim.Time(sim.Millisecond), func() {
			_ = r.ms.Call(cli2, "svc.echo", r.opts(CritQM, 2*sim.Millisecond, onceOnly()),
				func(Event) { served2++ }, nil)
		})
	}
	r.k.Run()

	if len(r.ms.breakers) != 2 {
		t.Fatalf("%d breakers, want one per client edge", len(r.ms.breakers))
	}
	b1 := r.ms.edgeBreaker("client", "svc.echo", "prov-a")
	b2 := r.ms.edgeBreaker("client2", "svc.echo", "prov-a")
	if b1 == nil || b2 == nil || b1 == b2 {
		t.Fatalf("breakers client=%p client2=%p, want two distinct edges", b1, b2)
	}
	if samples, fails := b1.Window(); b1.Trips() != 1 || samples != 2 || fails != 2 {
		t.Errorf("client edge: trips=%d window=%d/%d failed, want 1 trip after 2 failed attempts",
			b1.Trips(), samples, fails)
	}
	if samples, fails := b2.Window(); b2.Trips() != 0 || samples != 3 || fails != 0 {
		t.Errorf("client2 edge: trips=%d window=%d/%d failed, want 0 trips and 3 clean samples",
			b2.Trips(), samples, fails)
	}
	if served2 != 3 {
		t.Errorf("client2 served %d calls, want 3", served2)
	}
}
