package reconfig

import (
	"strings"
	"testing"

	"dynaplat/internal/admission"
	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/platform"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/tsn"
)

// Mesh↔orchestrator integration: a tripped circuit breaker is a failure
// *detector*. Wired through Mesh.SetFailureNotifier(orc.NotifyFailure),
// one trip must (1) declare the instance's ECU failed, (2) re-place the
// provider app through admission, (3) migrate its SOA endpoint to the
// new home — so the breaker's half-open probe lands on the re-placed
// instance and closes the edge without any client-side involvement.

// lossyNet drops every frame addressed to a station in dropDst.
type lossyNet struct {
	inner   network.Network
	dropDst map[string]bool
}

func (l *lossyNet) Name() string                               { return l.inner.Name() }
func (l *lossyNet) Attach(station string, rx network.Receiver) { l.inner.Attach(station, rx) }
func (l *lossyNet) Send(msg network.Message) {
	if l.dropDst[msg.Dst] {
		return
	}
	l.inner.Send(msg)
}

func TestBreakerTripDrivesReplacementAndProbeFollows(t *testing.T) {
	k := sim.NewKernel(31)
	ln := &lossyNet{
		inner:   tsn.New(k, tsn.DefaultConfig("backbone")),
		dropDst: map[string]bool{},
	}
	mw := soa.New(k, nil)
	mw.AddNetwork(ln, 1400)
	p := platform.New(k, mw)

	sys := model.NewSystem("mesh-vehicle")
	for _, name := range []string{"ecuA", "ecuB", "ecuC"} {
		e := testECU(name)
		sys.ECUs = append(sys.ECUs, &e)
		if _, err := p.AddNode(e, platform.ModeIsolated, 250*sim.Microsecond); err != nil {
			t.Fatalf("AddNode(%s): %v", name, err)
		}
	}
	app := da("prov-a", model.ASILD, 64)
	sys.Apps = append(sys.Apps, &app)
	sys.Placement[app.Name] = "ecuA"
	inst, err := p.Node("ecuA").Install(app, platform.Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}

	ctrl := admission.NewController(sys)
	orc := New(p, ctrl, Config{
		CheckPeriod: sim.Millisecond,
		// The silence supervisor must stay out of the picture: the mesh
		// breaker is the only failure detector in this test.
		SilenceThreshold: 10 * sim.Second,
		ReplanDelay:      msd(2),
		SettleTimeout:    msd(200),
	})
	if err := orc.Watch("ecuA", "ecuB", "ecuC"); err != nil {
		t.Fatal(err)
	}
	orc.Start()

	bc := soa.BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: 30 * sim.Millisecond}
	ms := soa.NewMesh(mw, soa.MeshConfig{Breaker: &bc})
	ms.SetFailureNotifier(orc.NotifyFailure)
	var servedAt []string
	srv := mw.EndpointOf("prov-a")
	if srv == nil {
		srv = mw.Endpoint("prov-a", "ecuA")
	}
	ms.Offer(srv, "svc.brake", soa.OfferOpts{Network: "backbone",
		Handler: func(any) (int, any, sim.Duration) {
			servedAt = append(servedAt, srv.ECU())
			return 16, "ok", 200 * sim.Microsecond
		}})
	cli := mw.Endpoint("hu-main", "ecuC")

	pol := soa.RetryPolicy{MaxAttempts: 3, Backoff: 2 * sim.Millisecond}
	opts := soa.MeshCallOpts{Criticality: soa.CritASILD, ReqBytes: 32,
		PerTry: 2 * sim.Millisecond, Retry: pol}

	// The ECU dies at 50 ms: the node crashes and its frames stop
	// arriving. Nothing but the mesh knows.
	k.At(sim.Time(msd(50)), func() {
		ln.dropDst["ecuA"] = true
		p.Node("ecuA").Crash()
	})
	// A call at 51 ms burns two per-try timeouts and trips the edge at
	// ~57 ms, which is the NotifyFailure instant.
	k.At(sim.Time(msd(51)), func() {
		_ = ms.Call(cli, "svc.brake", opts, nil, func(soa.FailReason) {})
	})
	// After the 30 ms cool-down the edge is half-open; this call is the
	// probe and must reach the provider at its new home.
	probeServed := false
	k.At(sim.Time(msd(100)), func() {
		_ = ms.Call(cli, "svc.brake", opts, func(soa.Event) { probeServed = true }, nil)
	})
	k.RunUntil(sim.Time(msd(300)))

	if len(orc.Signals) == 0 || orc.Signals[0].Source != "notify" ||
		!strings.Contains(orc.Signals[0].Detail, "mesh-breaker") {
		t.Fatalf("signals = %+v, want a mesh-breaker notify for ecuA", orc.Signals)
	}
	if len(orc.Recoveries) != 1 {
		t.Fatalf("got %d recoveries, want 1: %+v", len(orc.Recoveries), orc.Recoveries)
	}
	rec := orc.Recoveries[0]
	if rec.ECU != "ecuA" || !strings.Contains(rec.Reason, "mesh-breaker") {
		t.Errorf("recovery = %+v, want ecuA declared by the breaker trip", rec)
	}
	if len(rec.Moves) != 1 || rec.Moves[0].App != "prov-a" || rec.Moves[0].To != "ecuB" {
		t.Fatalf("moves = %+v, want prov-a re-placed on ecuB", rec.Moves)
	}
	if !rec.Steady {
		t.Error("recovery never settled")
	}
	if got := srv.ECU(); got != "ecuB" {
		t.Errorf("endpoint home = %s, want ecuB after migration", got)
	}
	if !probeServed {
		t.Fatal("half-open probe was not served at the new home")
	}
	if len(servedAt) != 1 || servedAt[0] != "ecuB" {
		t.Errorf("handler runs = %v, want exactly the probe at ecuB", servedAt)
	}
	if ms.BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d, want 1", ms.BreakerTrips)
	}
	if !ms.Conserved() {
		t.Error("mesh conservation violated")
	}
}
