// Package fuzz generates random-but-valid dynamic-platform scenarios as
// a pure function of one seed, runs them through the full stack (sim
// kernel, CAN/TSN, SOA middleware + mesh, fault campaigns, platform,
// staged updates, reconfig), and checks every scenario against the
// platform's universal properties (DESIGN.md §12):
//
//  1. re-run byte-identity
//  2. observed-vs-plain neutrality + byte-identical artifacts
//  3. mesh conservation (offered == served + shed + dead-lettered)
//  4. no leaked timers / dead-letter drift at quiesce
//  5. rollback byte-identity (staged update + reconfig install failure)
//
// A failure reproduces from (generator version, seed) alone and is
// shrunk to a minimal failing spec before reporting (shrink.go).
package fuzz

import (
	"encoding/json"
	"fmt"

	"dynaplat/internal/faults"
	"dynaplat/internal/model"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
)

// Version is the generator version. Bump it whenever Generate's draw
// sequence changes: a reproduction handle is (Version, Seed), and stored
// corpus seeds are only meaningful against the version that drew them.
const Version = 1

// Spec is a complete scenario description: pure serializable data, no
// live objects. Generate derives one from a seed; run.go executes it.
// Wherever a layer has a type for a part of the scenario, the spec holds
// that type: the vehicle is written in model types, the fault tiers in
// faults types and the mesh in soa types. What no layer describes (the
// publishers' traffic, migrations, mesh streams, the update and reconfig
// tiers) stays in the fuzz types below.
type Spec struct {
	Seed    uint64       `json:"seed"`
	Version int          `json:"version"`
	Horizon sim.Duration `json:"horizon"`

	// ECUs hosts publishers, mesh providers, and (platform tiers)
	// installed apps. Clients, the sink, spares, and the babbler are
	// separate stations and never fault-campaign targets. ECU i sits in
	// the front zone for even i and in the rear zone for odd i.
	ECUs     []model.ECU    `json:"ecus"`
	Backbone model.Network  `json:"backbone"`
	Aux      *model.Network `json:"aux,omitempty"`

	Pubs       []PubSpec       `json:"pubs"`
	Migrations []MigrationSpec `json:"migrations,omitempty"`

	Mesh     *MeshSpec     `json:"mesh,omitempty"`
	Campaign *CampaignSpec `json:"campaign,omitempty"`
	Update   *UpdateSpec   `json:"update,omitempty"`
	Reconfig *ReconfigSpec `json:"reconfig,omitempty"`
}

// Placed is one app of the vehicle model and the ECU it is placed on.
type Placed struct {
	App  model.App `json:"app"`
	Home string    `json:"home"`
}

// PubSpec is one periodic publisher: a ticker-driven endpoint in plain
// scenarios, an installed deterministic app in platform tiers. The sink
// station subscribes and records a per-period delivery bitmap.
type PubSpec struct {
	Placed
	Iface   string `json:"iface"`
	Payload int    `json:"payload"`

	// QoSDeadline, when non-zero, supervises the sink's subscription.
	QoSDeadline sim.Duration `json:"qos_deadline,omitempty"`
	// Reliable publishes with sequence numbers; the sink subscribes
	// with gap detection and history re-request.
	Reliable bool `json:"reliable,omitempty"`
	// History is the provider's retained-sample depth (0 = none).
	History int `json:"history,omitempty"`
	// AuxIface, when non-empty, dual-homes the publisher: a second
	// interface offered on the aux network (requires Spec.Aux).
	AuxIface string `json:"aux_iface,omitempty"`
}

// MigrationSpec moves a publisher's endpoint to a spare station at a
// fixed instant (plain scenarios only — platform tiers own placement).
type MigrationSpec struct {
	App string       `json:"app"`
	To  string       `json:"to"`
	At  sim.Duration `json:"at"`
}

// MeshSpec is a replicated-service tier in the e24 shape.
type MeshSpec struct {
	Config soa.MeshConfig `json:"config"`
	// Evict wires the campaign's ECU lifecycle into mesh routing.
	Evict bool `json:"evict,omitempty"`

	Services []MeshServiceSpec `json:"services"`
	Streams  []StreamSpec      `json:"streams"`
}

// MeshServiceSpec is one replicated service.
type MeshServiceSpec struct {
	Name  string       `json:"name"`
	Homes []string     `json:"homes"`
	Proc  sim.Duration `json:"proc"`
}

// StreamSpec is one client call stream.
type StreamSpec struct {
	Service string          `json:"service"`
	Client  string          `json:"client"`
	Crit    soa.Criticality `json:"crit"`
	Rate    int             `json:"rate"` // calls per virtual second
}

// CampaignSpec seeds a fault campaign plus network-level fault rates.
// The campaign's seed and horizon derive from the spec's own.
type CampaignSpec struct {
	MTBF        sim.Duration     `json:"mtbf"`
	RepairMean  sim.Duration     `json:"repair_mean"`
	RebootDelay sim.Duration     `json:"reboot_delay"`
	Weights     faults.Weights   `json:"weights"`
	Net         faults.NetConfig `json:"net"`
	// Babble arms a babbling-idiot station on the backbone.
	Babble *BabbleSpec `json:"babble,omitempty"`
}

// BabbleSpec is one babbling-idiot stream.
type BabbleSpec struct {
	ID     uint32       `json:"id"`
	Bytes  int          `json:"bytes"`
	Period sim.Duration `json:"period"`
}

// UpdateSpec stages a verified update of the first publisher (platform
// tier), starting at a third of the horizon with a soak of a sixth. Bad
// images fail verification and must roll back byte-identically;
// ExtraIface ships a v2-only interface — the ghost-service shape
// rollback must not leak.
type UpdateSpec struct {
	Bad        bool `json:"bad"`
	ExtraIface bool `json:"extra_iface"`
}

// ReconfigSpec runs the self-healing orchestrator over the platform
// tier (implies a fault campaign). InjectInstallFail fills every node's
// free physical memory with ghost apps invisible to the admission
// model, so every recovery's physical install fails and must roll the
// model back byte-identically. NDAs are the best-effort apps of the
// admission model.
type ReconfigSpec struct {
	InjectInstallFail bool     `json:"inject_install_fail"`
	NDAs              []Placed `json:"ndas,omitempty"`
}

// Render returns the spec as deterministic, indented JSON — the
// artifact dynafuzz reports for a shrunk failing scenario.
func (s Spec) Render() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Spec is plain data; MarshalIndent cannot fail on it.
		panic(fmt.Sprintf("fuzz: render spec: %v", err))
	}
	return string(b)
}

// Generate derives a scenario from (Version, seed) alone: every
// dimension is drawn from one seeded RNG stream, so the same seed
// always yields the same spec. Validity invariants (DESIGN.md §12):
// every referenced ECU/network/service exists, per-ECU deterministic
// utilization stays <= 0.5, ECU memory is sized to fit its apps plus
// replacement headroom, replicas live on distinct ECUs, and update /
// reconfig tiers are mutually exclusive (both own app lifecycles).
func Generate(seed uint64) Spec {
	rng := sim.NewRNG(seed)
	sp := Spec{Seed: seed, Version: Version}
	sp.Horizon = rng.DurationRange(250*sim.Millisecond, 450*sim.Millisecond)

	// Topology.
	necu := 3 + rng.Intn(4)
	sp.ECUs = make([]model.ECU, 0, necu)
	for i := 0; i < necu; i++ {
		sp.ECUs = append(sp.ECUs, model.ECU{
			Name: fmt.Sprintf("ecu%d", i), CPUMHz: 100, HasMMU: true, OS: model.OSRTOS,
		})
	}
	sp.Backbone = drawNet(rng, "bb")
	if rng.Bool(0.35) {
		aux := drawNet(rng, "aux")
		sp.Aux = &aux
	}

	// Tier selection. Reconfig implies a campaign (failures to heal);
	// update and reconfig are mutually exclusive.
	wantMesh := rng.Bool(0.6)
	wantCampaign := rng.Bool(0.7)
	tier := rng.Intn(5) // 0,1: plain; 2: update; 3,4: reconfig
	wantUpdate := tier == 2
	wantReconfig := tier >= 3
	if wantReconfig {
		wantCampaign = true
	}

	// Publishers. Offered load is sized to the slowest bus a publisher
	// touches: a 500 kbit/s CAN backbone carries single-frame payloads at
	// tens-of-milliseconds periods or it saturates, and a saturated bus
	// never quiesces (the TX backlog outlives any fixed settle window).
	npub := 1 + rng.Intn(4)
	sp.Pubs = make([]PubSpec, 0, npub)
	for i := 0; i < npub; i++ {
		p := PubSpec{
			Placed: Placed{
				App: model.App{
					Name: fmt.Sprintf("pub%d", i), Kind: model.Deterministic, ASIL: model.ASILD,
					WCET:     rng.DurationRange(200*sim.Microsecond, 500*sim.Microsecond),
					MemoryKB: 32 + 16*rng.Intn(3),
					Version:  1,
				},
				Home: sp.ECUs[i%necu].Name,
			},
			Iface: fmt.Sprintf("pub%d.state", i),
		}
		if sp.Aux != nil && rng.Bool(0.5) {
			p.AuxIface = fmt.Sprintf("pub%d.aux", i)
		}
		canScale := sp.Backbone.Kind == model.NetCAN ||
			(p.AuxIface != "" && sp.Aux.Kind == model.NetCAN)
		if canScale {
			p.App.Period = []sim.Duration{10, 20, 50}[rng.Intn(3)] * sim.Millisecond
			p.Payload = 4 + rng.Intn(5) // one CAN frame
		} else {
			p.App.Period = []sim.Duration{2, 5, 10}[rng.Intn(3)] * sim.Millisecond
			p.Payload = 8 + rng.Intn(57)
		}
		p.App.Deadline = p.App.Period
		if rng.Bool(0.4) {
			p.QoSDeadline = 3 * p.App.Period
		}
		if rng.Bool(0.25) {
			p.Reliable = true
			p.History = 4
		} else if rng.Bool(0.2) {
			p.History = 2
		}
		sp.Pubs = append(sp.Pubs, p)
	}

	// Migrations: plain scenarios only — the platform tiers own app
	// placement. Dual-homed publishers are preferred so a migration
	// attaches the spare station to two networks at once (the attach-
	// order hazard surface).
	if !wantUpdate && !wantReconfig {
		nmig := rng.Intn(3)
		if nmig > npub {
			nmig = npub
		}
		var dual, single []int
		for i, p := range sp.Pubs {
			if p.AuxIface != "" {
				dual = append(dual, i)
			} else {
				single = append(single, i)
			}
		}
		order := append(dual, single...)
		for m := 0; m < nmig; m++ {
			sp.Migrations = append(sp.Migrations, MigrationSpec{
				App: sp.Pubs[order[m]].App.Name,
				To:  fmt.Sprintf("mig%d", m),
				At:  rng.DurationRange(sp.Horizon/4, 3*sp.Horizon/4),
			})
		}
	}

	if wantMesh {
		sp.Mesh = drawMesh(rng, sp.ECUs, sp.Backbone.Kind)
	}
	if wantCampaign {
		sp.Campaign = drawCampaign(rng, sp.Horizon, wantUpdate || wantReconfig)
	}
	if wantUpdate {
		sp.Update = &UpdateSpec{Bad: rng.Bool(0.5), ExtraIface: rng.Bool(0.5)}
	}
	if wantReconfig {
		rc := &ReconfigSpec{InjectInstallFail: rng.Bool(0.5)}
		nnda := 1 + rng.Intn(3)
		rc.NDAs = make([]Placed, 0, nnda)
		for i := 0; i < nnda; i++ {
			asil := model.QM
			if rng.Bool(0.4) {
				asil = model.ASILB
			}
			rc.NDAs = append(rc.NDAs, Placed{
				App: model.App{Name: fmt.Sprintf("nda%d", i), Kind: model.NonDeterministic,
					ASIL: asil, MemoryKB: 32 + 16*rng.Intn(3)},
				Home: sp.ECUs[(i+1)%necu].Name,
			})
		}
		sp.Reconfig = rc
	}

	sizeMemory(&sp)
	return sp
}

// drawNet draws one bus: TSN-shaped Ethernet or CAN.
func drawNet(rng *sim.RNG, name string) model.Network {
	if rng.Bool(0.5) {
		return model.Network{Name: name, Kind: model.NetEthernet,
			BitsPerSecond: []int64{100_000_000, 1_000_000_000}[rng.Intn(2)]}
	}
	return model.Network{Name: name, Kind: model.NetCAN,
		BitsPerSecond: []int64{500_000, 1_000_000}[rng.Intn(2)]}
}

// drawMesh draws the replicated-service tier. Stream rates scale with
// the backbone: a 500 kbit/s CAN bus saturates at call rates a TSN
// backbone shrugs off.
func drawMesh(rng *sim.RNG, ecus []model.ECU, backboneKind model.NetworkKind) *MeshSpec {
	m := &MeshSpec{
		Config: soa.MeshConfig{
			Policy:      soa.BalancePolicy(rng.Intn(3)),
			Breaker:     drawBreaker(rng),
			QueueDepth:  []int{0, 4, 8}[rng.Intn(3)],
			Concurrency: 1 + rng.Intn(2),
		},
		Evict: rng.Bool(0.5),
	}
	rates := []int{20, 40, 80}
	if backboneKind == model.NetCAN {
		rates = []int{5, 10}
	}
	nsvc := 1 + rng.Intn(3)
	replicas := 1 + rng.Intn(3)
	for s := 0; s < nsvc; s++ {
		svc := MeshServiceSpec{
			Name: fmt.Sprintf("svc%d", s),
			Proc: rng.DurationRange(sim.Millisecond, 4*sim.Millisecond),
		}
		off := rng.Intn(len(ecus))
		for r := 0; r < replicas; r++ {
			svc.Homes = append(svc.Homes, ecus[(off+r)%len(ecus)].Name)
		}
		m.Services = append(m.Services, svc)
		for _, cl := range []string{"cliF", "cliR"} {
			m.Streams = append(m.Streams, StreamSpec{
				Service: svc.Name, Client: cl,
				// ASIL-C, ASIL-B or QM: no stream is ever ASIL-D, so no
				// fuzzed call takes the DA retry policy or is protected
				// from shedding. Drawing ASIL-D changes the draws, which
				// needs a Version bump.
				Crit: []soa.Criticality{soa.CritASILC, soa.CritASILB, soa.CritQM}[rng.Intn(3)],
				Rate: rates[rng.Intn(len(rates))],
			})
		}
	}
	return m
}

// drawBreaker draws the mesh's per-edge circuit breaker: none, the
// default one, or a fast one that trips on fewer samples and closes
// sooner.
func drawBreaker(rng *sim.RNG) *soa.BreakerConfig {
	switch rng.Intn(3) {
	case 1:
		b := soa.DefaultBreakerConfig()
		return &b
	case 2:
		return &soa.BreakerConfig{Window: 6, MinSamples: 3,
			FailureRate: 0.5, OpenFor: 20 * sim.Millisecond}
	}
	return nil
}

// drawCampaign draws the fault-campaign tier. Repairs are always armed
// (RepairMean > 0) so quiesce audits have a bounded settle point.
func drawCampaign(rng *sim.RNG, horizon sim.Duration, platform bool) *CampaignSpec {
	c := &CampaignSpec{
		MTBF:        rng.DurationRange(horizon/8, horizon/2),
		RepairMean:  rng.DurationRange(20*sim.Millisecond, 80*sim.Millisecond),
		RebootDelay: rng.DurationRange(20*sim.Millisecond, 60*sim.Millisecond),
		Weights:     faults.Weights{Crash: 0.5, Hang: 0.2, Reboot: 0.3},
	}
	if platform {
		// Slowdowns only bite where a CPU model exists.
		c.Weights.Slowdown, c.Weights.Reboot = 0.1, 0.2
	}
	if rng.Bool(0.6) {
		c.Net.LossRate = rng.Float64() * 0.08
	}
	if rng.Bool(0.4) {
		c.Net.CorruptRate = rng.Float64() * 0.04
	}
	if rng.Bool(0.3) {
		c.Babble = &BabbleSpec{
			ID: 0x7F0, Bytes: 8,
			Period: rng.DurationRange(2*sim.Millisecond, 8*sim.Millisecond),
		}
	}
	return c
}

// sizeMemory sizes every ECU to fit its resident apps plus replacement
// headroom: a staged update doubles the target's footprint, and the
// reconfig tier needs room for any single re-placed app. The admission
// model mirrors these numbers exactly; InjectInstallFail later consumes
// the *physical* headroom with ghost apps the model cannot see.
func sizeMemory(sp *Spec) {
	resident := map[string]int{}
	for _, p := range sp.Pubs {
		resident[p.Home] += p.App.MemoryKB
	}
	if sp.Reconfig != nil {
		for _, n := range sp.Reconfig.NDAs {
			resident[n.Home] += n.App.MemoryKB
		}
	}
	for i := range sp.ECUs {
		mem := 128 + resident[sp.ECUs[i].Name] + 96
		if sp.Update != nil && sp.ECUs[i].Name == sp.Pubs[0].Home {
			mem += sp.Pubs[0].App.MemoryKB // parallel-install headroom
		}
		sp.ECUs[i].MemoryKB = mem
	}
}
