package experiments

import (
	"bytes"
	"encoding/binary"

	"dynaplat/internal/faults"
	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/obs"
	"dynaplat/internal/platform"
	"dynaplat/internal/safety/redundancy"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/vehicle"
)

func init() {
	register("E21", runE21)
}

// E21 — §3.3/§3.4: fault-campaign availability sweep. A seeded fault
// campaign (ECU crash/hang/reboot + frame loss/corruption + partition +
// babbling idiot) runs against a 500 Hz ASIL-D function replicated across
// three ECUs, under four resilience configurations:
//
//   - none:        single instance, plain subscribe, single-attempt RPC
//   - redundancy:  master/slave replicas with heartbeat failover
//   - retry:       reliable subscription (gap re-request) + RPC retry
//   - both:        redundancy and the SOA resilience layer together
//
// Availability is the fraction of function periods for which a valid
// (E2E-checked) sample reached the consumer — fresh or back-filled by a
// gap re-request. The same campaign seed drives every configuration at a
// given fault level, so the columns are directly comparable; the whole
// table is byte-identical per seed (TestFaultCampaignDeterministic).
//
// Corruption accounting: every corrupted frame carries either an E2E
// envelope (caught as wrong-crc) or a known self-checking pattern (the
// test oracle counts it as *silent* — undetectable by the receiver
// without protection). caught + silent must equal the engine's corrupted
// count exactly: no corruption goes unaccounted.

const (
	e21Period  = 2 * sim.Millisecond
	e21Horizon = 5 * sim.Second
	e21Periods = int(int64(e21Horizon) / int64(e21Period))
)

// e21Level is one fault-intensity step of the sweep.
type e21Level struct {
	name          string
	loss, corrupt float64
	mtbf          sim.Duration // 0 = no ECU faults
	babble        bool
}

// e21Config is one resilience configuration.
type e21Config struct {
	name      string
	redundant bool // master/slave replication + failover
	resilient bool // reliable subscription + RPC retry
}

// e21Result aggregates one cell of the sweep.
type e21Result struct {
	avail, freshAvail float64
	failovers         int
	rpcOK             int64
	retryRecovered    int64
	caught, silent    int64
	corrupted         int64
}

// e21Cell runs one cell of the sweep on a kernel from env, scope
// "E21/<level>/<config>". An observing env instruments the cell fully
// (kernel trace, network taps on both the fault layer and the
// medium, SOA metrics/spans, platform completion spans); observation
// never schedules kernel events or draws randomness, so the observed
// result is bit-identical to the plain one (TestRunEnv).
func e21Cell(env *obs.Env, li int, lv e21Level, cfg e21Config) e21Result {
	k := env.Kernel("E21/"+lv.name+"/"+cfg.name, 0xE21<<4|uint64(li))
	ecus := []string{"cpmA", "cpmB", "cpmC"}
	sys := backboneVehicle("e21-vehicle", 1024, ecus...)
	spec := model.App{Name: "da", Kind: model.Deterministic, ASIL: model.ASILD,
		Period: e21Period, WCET: 500 * sim.Microsecond, Deadline: e21Period, MemoryKB: 64}
	if !cfg.redundant {
		sys.Apps = append(sys.Apps, &spec)
		sys.Placement[spec.Name] = "cpmA"
	}
	v, err := vehicle.Build(k, sys, vehicle.Config{
		Faults: &faults.NetConfig{LossRate: lv.loss, CorruptRate: lv.corrupt}})
	if err != nil {
		panic(err)
	}
	mw, p, nf := v.Middleware, v.Platform, v.Faults[0]

	// The replicated deterministic function: publishes one E2E-protected
	// sample per period on the backbone.
	pub := mw.Endpoint("da", "cpmA")
	pub.Offer("da.state", soa.OfferOpts{Network: "backbone", Class: network.ClassControl})
	if err := pub.EnableHistory("da.state", 16); err != nil {
		panic(err)
	}
	tx := &soa.E2ESender{DataID: 0x21}
	// all marks every period with a valid sample, fresh only those whose
	// sample arrived in order (not back-filled).
	all, fresh := vehicle.NewProbe(e21Period, e21Periods), vehicle.NewProbe(e21Period, e21Periods)
	publish := func() {
		// Publishing continues past the horizon, into the repair tail.
		idx, _ := all.Index(k.Now())
		var body [8]byte
		binary.BigEndian.PutUint64(body[:], uint64(idx))
		pub.PublishSeq("da.state", 24, tx.Protect(body[:]))
	}

	var group *redundancy.Group
	if cfg.redundant {
		rm := redundancy.NewManager(p)
		var g *redundancy.Group
		behavior := platform.Behavior{OnActivate: func(int64) {
			// The publishing endpoint follows the current master's ECU.
			if _, node := p.FindApp(g.Master().Spec.Name); node != nil &&
				node.ECU().Name != pub.ECU() {
				pub.Migrate(node.ECU().Name)
			}
			publish()
		}}
		g, err := rm.Replicate(spec, ecus, behavior, redundancy.Config{
			HeartbeatPeriod: e21Period, MissThreshold: 3,
			PromotionDelay: sim.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		if err := g.Start(); err != nil {
			panic(err)
		}
		group = g
	} else {
		inst := p.Node("cpmA").App(spec.Name)
		inst.Behavior = platform.Behavior{OnActivate: func(int64) { publish() }}
		if err := inst.Start(); err != nil {
			panic(err)
		}
	}

	// Consumer on the (never-faulted) sink ECU: marks each period for
	// which a valid sample arrived. Fresh samples go through a stateful
	// E2E receiver; back-filled samples arrive out of counter order by
	// design, so they get a stateless envelope check.
	cons := mw.Endpoint("dash", "sink")
	rxFresh := &soa.E2EReceiver{DataID: 0x21}
	mark := func(ev soa.Event) {
		buf, ok := ev.Payload.([]byte)
		if !ok {
			return
		}
		var st soa.E2EStatus
		var body []byte
		if ev.Recovered {
			st, body = (&soa.E2EReceiver{DataID: 0x21}).Check(buf)
		} else {
			st, body = rxFresh.Check(buf)
		}
		if st == soa.E2EWrongCRC || st == soa.E2EWrongID || len(body) < 8 {
			return
		}
		idx := int(binary.BigEndian.Uint64(body))
		if all.Mark(idx) && !ev.Recovered {
			fresh.Mark(idx)
		}
	}
	if cfg.resilient {
		if _, err := cons.SubscribeReliable("da.state", soa.QoS{}, mark); err != nil {
			panic(err)
		}
	} else {
		if err := cons.Subscribe("da.state", mark); err != nil {
			panic(err)
		}
	}

	// RPC path: a 50 Hz configuration call from the sink to a provider
	// on cpmB (whose crashes and partitions the campaign injects).
	diag := mw.Endpoint("diag", "cpmB")
	diag.Offer("da.cfg", soa.OfferOpts{Network: "backbone",
		Handler: func(any) (int, any, sim.Duration) {
			return 16, "cfg", 50 * sim.Microsecond
		}})
	cli := mw.Endpoint("hmi", "sink")
	var rpcOK int64
	pol := soa.RetryPolicy{MaxAttempts: 1}
	if cfg.resilient {
		pol = soa.RetryPolicy{MaxAttempts: 4, Backoff: sim.Millisecond,
			MaxBackoff: 4 * sim.Millisecond, JitterFrac: 0.2}
	}
	k.Every(sim.Time(10*sim.Millisecond), 20*sim.Millisecond, func() {
		if k.Now() >= sim.Time(e21Horizon) {
			return
		}
		if err := cli.CallRetry("da.cfg", 32, nil, 8*sim.Millisecond, pol,
			func(soa.Event) { rpcOK++ }, nil); err != nil {
			panic(err)
		}
	})

	// Corruption-accounting streams ride the same faulty wire raw (no
	// SOA): one E2E-protected, one carrying a self-checking pattern the
	// oracle uses to count corruption a real receiver would miss.
	camTx := &soa.E2ESender{DataID: 0x200}
	camRx := &soa.E2EReceiver{DataID: 0x200}
	var caught, silent int64
	nf.Attach("cam", func(network.Delivery) {})
	nf.Attach("dashE", func(d network.Delivery) {
		if st, _ := camRx.Check(d.Msg.Payload.([]byte)); st == soa.E2EWrongCRC || st == soa.E2EWrongID {
			caught++
		}
	})
	nf.Attach("dashR", func(d network.Delivery) {
		b, ok := d.Msg.Payload.([]byte)
		if !ok || len(b) != 16 || !bytes.Equal(b[:8], b[8:]) {
			silent++
		}
	})
	frame := uint64(0)
	k.Every(0, 5*sim.Millisecond, func() {
		if k.Now() >= sim.Time(e21Horizon) {
			return
		}
		var id [8]byte
		binary.BigEndian.PutUint64(id[:], frame)
		frame++
		nf.Send(network.Message{ID: 0x200, Src: "cam", Dst: "dashE",
			Class: network.ClassPriority, Bytes: 32, Payload: camTx.Protect(id[:])})
		raw := make([]byte, 16)
		copy(raw, id[:])
		copy(raw[8:], id[:])
		nf.Send(network.Message{ID: 0x201, Src: "cam", Dst: "dashR",
			Class: network.ClassPriority, Bytes: 16, Payload: raw})
	})
	if lv.babble {
		b := nf.StartBabble("babbler", 0x3FF, network.ClassBulk, 1400, 2*sim.Millisecond)
		k.At(sim.Time(e21Horizon), func() { b.Stop() })
	}

	// The seeded campaign: identical schedule for every configuration at
	// this level (its RNG derives from the spec seed alone).
	if lv.mtbf > 0 {
		camp := faults.NewCampaign(k, faults.Spec{
			Seed:        0xE21<<8 | uint64(li),
			Horizon:     e21Horizon,
			MTBF:        lv.mtbf,
			RepairMean:  300 * sim.Millisecond,
			RebootDelay: 250 * sim.Millisecond,
			Weights:     faults.Weights{Crash: 0.6, Hang: 0.2, Reboot: 0.2},
		})
		for _, e := range ecus {
			camp.AddTarget(e, p.Node(e))
		}
		camp.AddNetwork(nf)
		camp.Start()
	}

	k.RunUntil(sim.Time(e21Horizon + sim.Second)) // repair tail + late recoveries

	res := e21Result{
		rpcOK:          rpcOK,
		retryRecovered: mw.RetryRecovered,
		caught:         caught,
		silent:         silent,
		corrupted:      nf.FramesCorrupted,
	}
	if group != nil {
		res.failovers = len(group.Failovers)
	}
	res.avail, res.freshAvail = all.Avail(), fresh.Avail()
	return res
}

// e21Levels returns the fault-intensity sweep.
func e21Levels() []e21Level {
	return []e21Level{
		{name: "0-none", loss: 0, corrupt: 0, mtbf: 0},
		{name: "1-low", loss: 0.01, corrupt: 0.005, mtbf: 2 * sim.Second},
		{name: "2-mid", loss: 0.02, corrupt: 0.01, mtbf: 1500 * sim.Millisecond},
		{name: "3-high", loss: 0.03, corrupt: 0.01, mtbf: 800 * sim.Millisecond, babble: true},
	}
}

// e21Configs returns the resilience configurations of the sweep.
func e21Configs() []e21Config {
	return []e21Config{
		{name: "none"},
		{name: "redundancy", redundant: true},
		{name: "retry", resilient: true},
		{name: "both", redundant: true, resilient: true},
	}
}

func runE21(env *obs.Env) *Table {
	t := &Table{
		ID: "E21", Title: "Fault-campaign availability sweep",
		Source: "§3.3, §3.4 (fault-injection engine + resilience layer)",
		Columns: []string{"fault-level", "config", "DA-avail", "fresh-avail",
			"failovers", "rpc-ok", "retry-rec", "corrupt-caught", "corrupt-silent"},
		Expectation: "redundancy+retry holds ≥99% availability at the highest " +
			"fault level while the bare stack degrades; every corrupted frame " +
			"is either E2E-caught or oracle-counted silent",
	}
	levels := e21Levels()
	configs := e21Configs()
	cells := sweep(env, len(levels)*len(configs), func(i int) e21Result {
		li := i / len(configs)
		return e21Cell(env, li, levels[li], configs[i%len(configs)])
	})
	t.Holds = true
	top := len(levels) - 1
	for li, lv := range levels {
		for ci, cfg := range configs {
			r := cells[li*len(configs)+ci]
			t.AddRow(lv.name, cfg.name, pct(r.avail), pct(r.freshAvail),
				itoa(int64(r.failovers)), itoa(r.rpcOK), itoa(r.retryRecovered),
				itoa(r.caught), itoa(r.silent))
			// Corruption fully accounted in every cell.
			if r.caught+r.silent != r.corrupted {
				t.Holds = false
			}
			// Fault-free level: everything near-perfect regardless of config.
			if li == 0 && r.avail < 0.999 {
				t.Holds = false
			}
			if li == top {
				switch cfg.name {
				case "both":
					if r.avail < 0.99 || r.failovers == 0 || r.retryRecovered == 0 {
						t.Holds = false
					}
				case "none":
					if r.avail > 0.97 {
						t.Holds = false // bare stack must visibly degrade
					}
				}
			}
		}
	}
	return t
}
