package experiments

import (
	"fmt"

	"dynaplat/internal/faults"
	"dynaplat/internal/network"
	"dynaplat/internal/obs"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/vehicle"
)

func init() {
	register("E24", runE24)
}

// E24 — §1.1/§4.2: service-mesh overload sweep. Three replicated
// services (3 provider instances each, spread over 6 ECUs in two zones)
// serve a mixed-criticality call load: a fixed ASIL-D stream (the DA
// traffic whose availability the platform must protect), a fixed ASIL-B
// body stream, and a QM infotainment storm whose intensity is the sweep
// axis — thousands of client sessions per cell at the top level. An
// E21-style seeded ECU fault campaign (crash/hang/reboot, identical
// schedule for every configuration at a level) runs underneath, so the
// mesh faces overload and partial failure at once. Four routing stacks:
//
//   - bare:       one provider per service, unbounded FIFO, no breaker —
//                 the point-to-point baseline the repo had before the
//                 mesh (a storm starves ASIL-D behind QM backlog)
//   - rr+breaker: 3 replicas, round-robin, circuit breakers with no
//                 fault-campaign eviction — breaker timeouts alone must
//                 detect dead instances and route around them
//   - lp+evict:   3 replicas, least-pending, fast breakers, campaign
//                 eviction hooks (instances leave routing at the exact
//                 injection instant)
//   - zone+evict: 3 replicas, zone-local balancing (cross-zone only as
//                 fallback), default breakers, eviction hooks
//
// Measured per cell: DA availability (served within budget / offered),
// DA p99 whole-call latency, NDA availability, and the conservation
// account offered == served + shed + dead-lettered with zero ASIL-D
// sheds — the criticality-ordering invariant. The whole table renders
// byte-identically per seed (TestE24Deterministic), on any number of
// RunTables workers (TestSerialParallelByteIdentical), and under full
// instrumentation (TestRunEnv).

const (
	e24Horizon = 2 * sim.Second
	// e24Tail bounds settling: every call carries a <=200 ms budget, so
	// all conservation counters are final this long after the horizon.
	e24Tail = 400 * sim.Millisecond
	// e24Proc is the per-call provider processing time; with mesh
	// concurrency 1 an instance serves ~430 calls/s including the wire.
	e24Proc = 2 * sim.Millisecond
)

// e24Level is one offered-load step: qmRate is the per-service QM storm
// intensity in calls/s (split across the two client ECUs), on top of a
// fixed 100 calls/s ASIL-D + 50 calls/s ASIL-B floor per service.
type e24Level struct {
	name   string
	qmRate int
}

func e24Levels() []e24Level {
	return []e24Level{
		{name: "1-base", qmRate: 150},
		{name: "2-surge", qmRate: 600},
		{name: "3-storm", qmRate: 1200},
	}
}

// e24Config is one routing stack.
type e24Config struct {
	name     string
	replicas int
	policy   soa.BalancePolicy
	breaker  *soa.BreakerConfig
	depth    int  // instance queue bound; 0 = unbounded (no shedding)
	evict    bool // campaign eviction hooks (Mesh.ECULifecycle)
}

func e24Configs() []e24Config {
	def := soa.DefaultBreakerConfig()
	fast := soa.BreakerConfig{Window: 6, MinSamples: 3, FailureRate: 0.5,
		OpenFor: 20 * sim.Millisecond}
	return []e24Config{
		{name: "bare", replicas: 1, policy: soa.PolicyRoundRobin},
		{name: "rr+breaker", replicas: 3, policy: soa.PolicyRoundRobin,
			breaker: &def, depth: 8},
		{name: "lp+evict", replicas: 3, policy: soa.PolicyLeastPending,
			breaker: &fast, depth: 8, evict: true},
		{name: "zone+evict", replicas: 3, policy: soa.PolicyZoneLocal,
			breaker: &def, depth: 8, evict: true},
	}
}

// e24Services places the three replicated services over the six
// provider ECUs; every service spans both zones so zone-local balancing
// has a local choice and a cross-zone fallback.
var e24Services = []struct {
	name  string
	homes [3]string
}{
	{"adas.fusion", [3]string{"pf1", "pr1", "pf2"}},
	{"body.climate", [3]string{"pf2", "pr2", "pr3"}},
	{"infot.media", [3]string{"pf3", "pr3", "pf1"}},
}

// e24Result aggregates one cell.
type e24Result struct {
	faults             int
	daOff, daServed    int64
	ndaOff, ndaServed  int64
	daLat              sim.Sample
	offered, served    int64
	shed, shedDA, dead int64
	trips              int64
	conserved          bool
}

func (r *e24Result) daAvail() float64 {
	if r.daOff == 0 {
		return 1
	}
	return float64(r.daServed) / float64(r.daOff)
}

func (r *e24Result) ndaAvail() float64 {
	if r.ndaOff == 0 {
		return 1
	}
	return float64(r.ndaServed) / float64(r.ndaOff)
}

// e24Cell runs one cell of the sweep on a kernel from env, scope
// "E24/<level>/<config>". An observing env instruments the cell fully
// (kernel trace, network taps, SOA + mesh metrics); observation
// schedules no events and draws no randomness, so the observed result
// is bit-identical to the plain one.
func e24Cell(env *obs.Env, li int, lv e24Level, cfg e24Config) e24Result {
	k := env.Kernel("E24/"+lv.name+"/"+cfg.name, 0xE24<<4|uint64(li))
	v, err := vehicle.Build(k, backboneVehicle("e24-vehicle", 0), vehicle.Config{Faults: &faults.NetConfig{}})
	if err != nil {
		panic(err)
	}
	mw, nf := v.Middleware, v.Faults[0]
	mw.SetJitterSeed(0xE24<<8 | uint64(li))

	ms := soa.NewMesh(mw, soa.MeshConfig{
		Policy:      cfg.policy,
		Breaker:     cfg.breaker,
		QueueDepth:  cfg.depth,
		Concurrency: 1,
	})
	providerECUs := []string{"pf1", "pf2", "pf3", "pr1", "pr2", "pr3"}
	for _, e := range []string{"pf1", "pf2", "pf3", "huF"} {
		ms.SetZone(e, "front")
	}
	for _, e := range []string{"pr1", "pr2", "pr3", "huR"} {
		ms.SetZone(e, "rear")
	}

	// Provider instances: cfg.replicas of each service, identical 2 ms
	// handlers. The bare config keeps only the first replica — the
	// point-to-point deployment.
	for _, svc := range e24Services {
		for i := 0; i < cfg.replicas; i++ {
			ep := mw.Endpoint(fmt.Sprintf("%s-r%d", svc.name, i), svc.homes[i])
			ms.Offer(ep, svc.name, soa.OfferOpts{
				Network: "backbone", Class: network.ClassPriority,
				Handler: func(any) (int, any, sim.Duration) { return 64, "ok", e24Proc },
			})
		}
	}

	// The seeded fault campaign: schedule derived from (level) alone, so
	// every configuration at a level faces the identical fault sequence.
	var res e24Result
	camp := faults.NewCampaign(k, faults.Spec{
		Seed:        0xE24<<8 | uint64(li),
		Horizon:     e24Horizon,
		MTBF:        1200 * sim.Millisecond,
		RepairMean:  350 * sim.Millisecond,
		RebootDelay: 250 * sim.Millisecond,
		Weights:     faults.Weights{Crash: 0.6, Hang: 0.25, Reboot: 0.15},
	})
	// A silencing fault partitions the provider's station (in-flight and
	// new requests time out) and, in evict configs, fires the mesh
	// lifecycle hooks; there is no platform node to crash.
	for _, e := range providerECUs {
		camp.AddTarget(e, faults.PassiveTarget{})
	}
	camp.AddNetwork(nf)
	camp.OnInject = func(faults.Injection) { res.faults++ }
	if cfg.evict {
		camp.HookECULifecycle(ms.ECULifecycle())
	}
	camp.Start()

	// Client load: per service, two ASIL-D streams (50/s each), two
	// ASIL-B streams (25/s each) and two QM storm streams (qmRate/2
	// each), one of each per client ECU. Every stream is a self-armed
	// ticker with a distinct phase, so arrivals interleave
	// deterministically without consuming kernel RNG.
	//
	// The budgets carry the safety semantics: an ASIL-D call is only
	// "available" if it completes within a tight 100 ms deadline, while
	// infotainment clients wait patiently (200 ms). That patience is
	// exactly what makes the bare FIFO dangerous — queued QM calls do
	// not expire out of the deterministic traffic's way.
	daPol := soa.RetryPolicy{MaxAttempts: 3, Backoff: 4 * sim.Millisecond,
		MaxBackoff: 16 * sim.Millisecond, JitterFrac: 0.2,
		Budget: 100 * sim.Millisecond}
	bePol := soa.RetryPolicy{MaxAttempts: 2, Backoff: 4 * sim.Millisecond,
		MaxBackoff: 8 * sim.Millisecond, JitterFrac: 0.2,
		Budget: 200 * sim.Millisecond}
	clients := []*soa.Endpoint{mw.Endpoint("hu-front", "huF"), mw.Endpoint("hu-rear", "huR")}
	streamIdx := 0
	for _, svc := range e24Services {
		svcName := svc.name
		for _, cl := range clients {
			cl := cl
			type streamSpec struct {
				crit soa.Criticality
				rate int
				per  sim.Duration
				pol  soa.RetryPolicy
			}
			for _, sp := range []streamSpec{
				{crit: soa.CritASILD, rate: 50, per: 25 * sim.Millisecond, pol: daPol},
				{crit: soa.CritASILB, rate: 25, per: 25 * sim.Millisecond, pol: bePol},
				{crit: soa.CritQM, rate: lv.qmRate / 2, per: 25 * sim.Millisecond, pol: bePol},
			} {
				sp := sp
				streamIdx++
				interval := sim.Second / sim.Duration(sp.rate)
				phase := sim.Duration(streamIdx) * 73 * sim.Microsecond
				da := sp.crit == soa.CritASILD
				// One completion per stream: a closure built per call
				// would be most of what the run allocates.
				served := func(ev soa.Event) {
					if da {
						res.daServed++
						res.daLat.AddDuration(ev.Latency())
					} else {
						res.ndaServed++
					}
				}
				var tick func()
				tick = func() {
					if k.Now() >= sim.Time(e24Horizon) {
						return
					}
					if da {
						res.daOff++
					} else {
						res.ndaOff++
					}
					err := ms.Call(cl, svcName, soa.MeshCallOpts{
						Criticality: sp.crit, ReqBytes: 48,
						PerTry: sp.per, Retry: sp.pol,
					}, served, nil)
					if err != nil {
						panic(err)
					}
					k.After(interval, tick)
				}
				k.At(sim.Time(phase), tick)
			}
		}
	}

	k.RunUntil(sim.Time(e24Horizon + e24Tail))

	res.offered = ms.Offered
	res.served = ms.Served
	res.shed = ms.Shed
	res.shedDA = ms.ShedByCrit[soa.CritASILD]
	res.dead = ms.DeadLettered
	res.trips = ms.BreakerTrips
	res.conserved = ms.Conserved()
	return res
}

func runE24(env *obs.Env) *Table {
	t := &Table{
		ID: "E24", Title: "Service-mesh overload and failure sweep",
		Source: "§1.1, §4.2 (runtime uncertainty absorbed by the SOA layer)",
		Columns: []string{"load", "config", "faults", "DA-avail", "DA-p99",
			"NDA-avail", "offered", "shed", "shedDA", "dead", "trips", "conserved"},
		Expectation: "replication + breakers + criticality-aware shedding hold " +
			"ASIL-D availability ≥99% at the top overload level while bare " +
			"point-to-point degrades visibly; no ASIL-D call is ever shed and " +
			"offered == served + shed + dead-lettered in every cell",
	}
	levels := e24Levels()
	configs := e24Configs()
	cells := sweep(env, len(levels)*len(configs), func(i int) e24Result {
		li := i / len(configs)
		return e24Cell(env, li, levels[li], configs[i%len(configs)])
	})
	t.Holds = true
	top := len(levels) - 1
	for li, lv := range levels {
		levelFaults := -1
		for ci, cfg := range configs {
			r := cells[li*len(configs)+ci]
			t.AddRow(lv.name, cfg.name, itoa(int64(r.faults)), pct(r.daAvail()),
				e22ms(r.daLat.PercentileDuration(99), r.daLat.Count() > 0),
				pct(r.ndaAvail()), itoa(r.offered), itoa(r.shed), itoa(r.shedDA),
				itoa(r.dead), itoa(r.trips), fmt.Sprintf("%v", r.conserved))
			// Identical campaign per level: the fault schedule must not
			// depend on the routing configuration.
			if levelFaults == -1 {
				levelFaults = r.faults
			} else if r.faults != levelFaults {
				t.Holds = false
			}
			// The two load-bearing invariants, in every cell: nothing
			// vanishes, and ASIL-D is never the shedding victim.
			if !r.conserved || r.shedDA != 0 {
				t.Holds = false
			}
			// Mesh configurations protect DA at every load level.
			if cfg.name != "bare" && r.daAvail() < 0.99 {
				t.Holds = false
			}
			if li == top {
				switch cfg.name {
				case "bare":
					// No admission control: the QM storm starves ASIL-D.
					if r.daAvail() > 0.97 {
						t.Holds = false
					}
				case "rr+breaker":
					// Breakers are the only failure detector here: with
					// faults present they must actually engage.
					if r.faults > 0 && r.trips == 0 {
						t.Holds = false
					}
				}
				// Bounded queues under a storm must shed (QM), and only QM-
				// class traffic pays: graceful, not silent, degradation.
				if cfg.depth > 0 && r.shed == 0 {
					t.Holds = false
				}
			}
		}
	}
	return t
}
