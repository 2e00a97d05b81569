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

	"dynaplat/internal/sim"
)

// Version is the generator version. Bump it whenever Generate's draw
// sequence changes: a reproduction handle is (Version, Seed), and stored
// corpus seeds are only meaningful against the version that drew them.
const Version = 1

// Spec is a complete scenario description: pure serializable data, no
// live objects. Generate derives one from a seed; run.go executes it.
type Spec struct {
	Seed    uint64       `json:"seed"`
	Version int          `json:"version"`
	Horizon sim.Duration `json:"horizon"`

	// ECUs hosts publishers, mesh providers, and (platform tiers)
	// installed apps. Clients, the sink, spares, and the babbler are
	// separate stations and never fault-campaign targets.
	ECUs     []ECUSpec `json:"ecus"`
	Backbone NetSpec   `json:"backbone"`
	Aux      *NetSpec  `json:"aux,omitempty"`

	Pubs       []PubSpec       `json:"pubs"`
	Migrations []MigrationSpec `json:"migrations,omitempty"`

	Mesh     *MeshSpec     `json:"mesh,omitempty"`
	Campaign *CampaignSpec `json:"campaign,omitempty"`
	Update   *UpdateSpec   `json:"update,omitempty"`
	Reconfig *ReconfigSpec `json:"reconfig,omitempty"`
}

// ECUSpec is one faultable compute node.
type ECUSpec struct {
	Name   string `json:"name"`
	Zone   string `json:"zone"`
	CPUMHz int    `json:"cpu_mhz"`
	MemKB  int    `json:"mem_kb"`
}

// NetSpec is one bus. Kind is "can" or "tsn".
type NetSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	BPS  int64  `json:"bps"`
}

// PubSpec is one periodic publisher: a ticker-driven endpoint in plain
// scenarios, an installed deterministic app in platform tiers. The sink
// station subscribes and records a per-period delivery bitmap.
type PubSpec struct {
	App     string       `json:"app"`
	Home    string       `json:"home"`
	Iface   string       `json:"iface"`
	Period  sim.Duration `json:"period"`
	Payload int          `json:"payload"`
	WCET    sim.Duration `json:"wcet"`
	MemKB   int          `json:"mem_kb"`

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
	Policy      int    `json:"policy"`  // soa.BalancePolicy
	Breaker     string `json:"breaker"` // "none", "default", "fast"
	QueueDepth  int    `json:"queue_depth"`
	Concurrency int    `json:"concurrency"`
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

// StreamSpec is one client call stream. Crit is a soa.Criticality.
type StreamSpec struct {
	Service string `json:"service"`
	Client  string `json:"client"`
	Crit    int    `json:"crit"`
	Rate    int    `json:"rate"` // calls per virtual second
}

// CampaignSpec seeds a fault campaign plus network-level fault rates.
type CampaignSpec struct {
	MTBF        sim.Duration `json:"mtbf"`
	RepairMean  sim.Duration `json:"repair_mean"`
	RebootDelay sim.Duration `json:"reboot_delay"`
	WCrash      float64      `json:"w_crash"`
	WHang       float64      `json:"w_hang"`
	WSlow       float64      `json:"w_slow"`
	WReboot     float64      `json:"w_reboot"`

	Loss    float64 `json:"loss,omitempty"`
	Corrupt float64 `json:"corrupt,omitempty"`
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
// tier). Bad images fail verification and must roll back
// byte-identically; ExtraIface ships a v2-only interface — the ghost-
// service shape rollback must not leak.
type UpdateSpec struct {
	Bad        bool         `json:"bad"`
	ExtraIface bool         `json:"extra_iface"`
	Start      sim.Duration `json:"start"`
	Soak       sim.Duration `json:"soak"`
}

// ReconfigSpec runs the self-healing orchestrator over the platform
// tier (implies a fault campaign). InjectInstallFail fills every node's
// free physical memory with ghost apps invisible to the admission
// model, so every recovery's physical install fails and must roll the
// model back byte-identically.
type ReconfigSpec struct {
	InjectInstallFail bool      `json:"inject_install_fail"`
	NDAs              []NDASpec `json:"ndas,omitempty"`
}

// NDASpec is one best-effort app in the reconfig tier's model.
type NDASpec struct {
	Name  string `json:"name"`
	Home  string `json:"home"`
	ASIL  string `json:"asil"` // "QM" or "B"
	MemKB int    `json:"mem_kb"`
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
	for i := 0; i < necu; i++ {
		zone := "front"
		if i%2 == 1 {
			zone = "rear"
		}
		sp.ECUs = append(sp.ECUs, ECUSpec{
			Name: fmt.Sprintf("ecu%d", i), Zone: zone, CPUMHz: 100,
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
	for i := 0; i < npub; i++ {
		p := PubSpec{
			App:   fmt.Sprintf("pub%d", i),
			Home:  sp.ECUs[i%necu].Name,
			Iface: fmt.Sprintf("pub%d.state", i),
			WCET:  rng.DurationRange(200*sim.Microsecond, 500*sim.Microsecond),
			MemKB: 32 + 16*rng.Intn(3),
		}
		if sp.Aux != nil && rng.Bool(0.5) {
			p.AuxIface = fmt.Sprintf("pub%d.aux", i)
		}
		canScale := sp.Backbone.Kind == "can" ||
			(p.AuxIface != "" && sp.Aux.Kind == "can")
		if canScale {
			p.Period = []sim.Duration{10, 20, 50}[rng.Intn(3)] * sim.Millisecond
			p.Payload = 4 + rng.Intn(5) // one CAN frame
		} else {
			p.Period = []sim.Duration{2, 5, 10}[rng.Intn(3)] * sim.Millisecond
			p.Payload = 8 + rng.Intn(57)
		}
		if rng.Bool(0.4) {
			p.QoSDeadline = 3 * p.Period
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
				App: sp.Pubs[order[m]].App,
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
		sp.Update = &UpdateSpec{
			Bad:        rng.Bool(0.5),
			ExtraIface: rng.Bool(0.5),
			Start:      sp.Horizon / 3,
			Soak:       sp.Horizon / 6,
		}
	}
	if wantReconfig {
		rc := &ReconfigSpec{InjectInstallFail: rng.Bool(0.5)}
		nnda := 1 + rng.Intn(3)
		for i := 0; i < nnda; i++ {
			asil := "QM"
			if rng.Bool(0.4) {
				asil = "B"
			}
			rc.NDAs = append(rc.NDAs, NDASpec{
				Name: fmt.Sprintf("nda%d", i),
				Home: sp.ECUs[(i+1)%necu].Name,
				ASIL: asil, MemKB: 32 + 16*rng.Intn(3),
			})
		}
		sp.Reconfig = rc
	}

	sizeMemory(&sp)
	return sp
}

// drawNet draws one bus spec.
func drawNet(rng *sim.RNG, name string) NetSpec {
	if rng.Bool(0.5) {
		return NetSpec{Name: name, Kind: "tsn",
			BPS: []int64{100_000_000, 1_000_000_000}[rng.Intn(2)]}
	}
	return NetSpec{Name: name, Kind: "can",
		BPS: []int64{500_000, 1_000_000}[rng.Intn(2)]}
}

// drawMesh draws the replicated-service tier. Stream rates scale with
// the backbone: a 500 kbit/s CAN bus saturates at call rates a TSN
// backbone shrugs off.
func drawMesh(rng *sim.RNG, ecus []ECUSpec, backboneKind string) *MeshSpec {
	m := &MeshSpec{
		Policy:      rng.Intn(3),
		Breaker:     []string{"none", "default", "fast"}[rng.Intn(3)],
		QueueDepth:  []int{0, 4, 8}[rng.Intn(3)],
		Concurrency: 1 + rng.Intn(2),
		Evict:       rng.Bool(0.5),
	}
	rates := []int{20, 40, 80}
	if backboneKind == "can" {
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
				Crit: []int{3, 2, 0}[rng.Intn(3)], // ASILD, ASILB, QM
				Rate: rates[rng.Intn(len(rates))],
			})
		}
	}
	return m
}

// drawCampaign draws the fault-campaign tier. Repairs are always armed
// (RepairMean > 0) so quiesce audits have a bounded settle point.
func drawCampaign(rng *sim.RNG, horizon sim.Duration, platform bool) *CampaignSpec {
	c := &CampaignSpec{
		MTBF:        rng.DurationRange(horizon/8, horizon/2),
		RepairMean:  rng.DurationRange(20*sim.Millisecond, 80*sim.Millisecond),
		RebootDelay: rng.DurationRange(20*sim.Millisecond, 60*sim.Millisecond),
		WCrash:      0.5, WHang: 0.2, WReboot: 0.3,
	}
	if platform {
		// Slowdowns only bite where a CPU model exists.
		c.WSlow, c.WReboot = 0.1, 0.2
	}
	if rng.Bool(0.6) {
		c.Loss = rng.Float64() * 0.08
	}
	if rng.Bool(0.4) {
		c.Corrupt = rng.Float64() * 0.04
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
		resident[p.Home] += p.MemKB
	}
	if sp.Reconfig != nil {
		for _, n := range sp.Reconfig.NDAs {
			resident[n.Home] += n.MemKB
		}
	}
	for i := range sp.ECUs {
		mem := 128 + resident[sp.ECUs[i].Name] + 96
		if sp.Update != nil && sp.ECUs[i].Name == sp.Pubs[0].Home {
			mem += sp.Pubs[0].MemKB // parallel-install headroom
		}
		sp.ECUs[i].MemKB = mem
	}
}
