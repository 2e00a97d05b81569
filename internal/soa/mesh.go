package soa

import (
	"fmt"
	"sort"

	"dynaplat/internal/network"
	"dynaplat/internal/obs"
	"dynaplat/internal/sim"
)

// Mesh grows the point-to-point middleware into an in-vehicle service
// mesh (CARISMA-style): multiple provider instances register under one
// logical service, clients balance across them (balance.go), circuit
// breakers isolate dead client→instance edges (breaker.go), and
// backpressure-bounded per-instance queues shed overload in strict
// criticality order (shed.go). The mesh is a routing layer over the
// existing endpoints: each instance is an ordinary middleware service
// offered under "<iface>#<app>", so segmentation, wire timing, session
// dedupe and endpoint migration all keep working unchanged underneath.
//
// Like every kernel-resident component, the mesh is deterministic:
// virtual time only, no goroutines, balancing state is explicit, and
// retry jitter draws from per-session seeded streams (retry.go) — so a
// full overload sweep (E24) renders byte-identically under the serial,
// parallel and observed harnesses.

// MeshConfig tunes a mesh.
type MeshConfig struct {
	// Policy is the client-side balancing policy (default round-robin).
	Policy BalancePolicy
	// Breaker enables per-edge circuit breakers when non-nil.
	Breaker *BreakerConfig
	// QueueDepth bounds each instance's wait queue; 0 keeps the queue
	// unbounded (no shedding — the point-to-point baseline behaviour).
	QueueDepth int
	// Concurrency is the number of service slots per instance: calls
	// dispatched beyond it wait in the instance queue (default 1, which
	// serializes the provider like a single-threaded handler).
	Concurrency int
}

// FailReason classifies a failed mesh call for the onFail callback.
type FailReason uint8

const (
	// FailShed is an overload-admission rejection (counted as shed).
	FailShed FailReason = iota
	// FailDeadLetter is exhaustion: attempts, budget, or no reachable
	// instance (counted as dead-lettered, never silently dropped).
	FailDeadLetter
)

func (r FailReason) String() string {
	if r == FailShed {
		return "shed"
	}
	return "dead-letter"
}

// MeshCallOpts parameterizes one logical mesh call.
type MeshCallOpts struct {
	// Criticality ranks the call for overload admission.
	Criticality Criticality
	// ReqBytes is the request size.
	ReqBytes int
	// PerTry is the per-attempt response timeout (required).
	PerTry sim.Duration
	// Retry is the attempt/backoff policy; Retry.Budget additionally
	// bounds the whole call including queue wait, so every offered call
	// settles (served, shed or dead-lettered) within Budget.
	Retry RetryPolicy
}

// Mesh is the vehicle-wide service-mesh plane over a Middleware.
type Mesh struct {
	m   *Middleware
	k   *sim.Kernel
	cfg MeshConfig

	svcs     map[string]*meshService
	svcNames []string // sorted; deterministic iteration order
	breakers map[edge]*Breaker
	zones    map[string]string
	downECU  map[string]bool

	// elig and local are route's scratch candidate lists (eligible and
	// the zone-local subset). pick consumes them before admit can
	// re-enter route, so one pair serves every call.
	elig, local []*meshInstance

	// notify, when non-nil, receives breaker-trip failure signals —
	// wired to reconfig.Orchestrator.NotifyFailure so the orchestrator
	// re-places crashed providers while the mesh routes around them.
	notify func(ecu, reason string)

	// Conservation accounting: Offered == Served + Shed + DeadLettered
	// + Outstanding() at every instant, and Outstanding() == 0 at
	// quiescence (Conserved).
	Offered      int64
	Served       int64
	Shed         int64
	DeadLettered int64
	// ShedByCrit splits sheds by call criticality; ShedProtected counts
	// sheds of protected calls (protectFrom) and must stay zero.
	ShedByCrit    [CritASILD + 1]int64
	ShedProtected int64
	// Timeouts counts per-attempt expirations; Retries counts re-routed
	// attempts; Reroutes counts queued calls moved off a failed
	// instance; BreakerTrips counts edge trips.
	Timeouts     int64
	Retries      int64
	Reroutes     int64
	BreakerTrips int64

	outstanding int64

	// calls recycles call records. depth counts the entries into the
	// mesh on the stack, and released holds the calls to recycle when
	// the outermost one returns (exit).
	calls    network.Pool[meshCall]
	depth    int
	released []*meshCall
}

// meshService is one logical replicated service.
type meshService struct {
	name  string
	insts []*meshInstance // sorted by app name
	rr    int             // round-robin cursor
	// crossZone counts zone-local picks that had to leave the caller's
	// zone (gateway-crossing fallbacks).
	crossZone int64

	// Cached observability instruments (lazy; see observeOffered).
	obsOffered *obs.Counter
	obsServed  *obs.Counter
	obsShed    *obs.Counter
	obsDead    *obs.Counter
	obsLat     *obs.Histogram
}

// meshInstance is one provider replica of a logical service.
type meshInstance struct {
	ms    *Mesh
	svc   *meshService
	ep    *Endpoint
	app   string
	iface string // underlying middleware interface: "<logical>#<app>"

	active int                     // dispatched calls not yet resolved
	queue  network.FIFO[*meshCall] // bounded wait queue (shed.go)

	// Dispatched counts attempts sent to this instance (test hook: a
	// down instance must not move this counter).
	Dispatched int64
}

// NewMesh creates a service-mesh plane over the middleware.
func NewMesh(m *Middleware, cfg MeshConfig) *Mesh {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Breaker != nil {
		bc := cfg.Breaker.normalized()
		cfg.Breaker = &bc
	}
	return &Mesh{
		m:        m,
		k:        m.k,
		cfg:      cfg,
		svcs:     map[string]*meshService{},
		breakers: map[edge]*Breaker{},
		zones:    map[string]string{},
		downECU:  map[string]bool{},
	}
}

// SetZone assigns an ECU to a zone for PolicyZoneLocal routing.
func (ms *Mesh) SetZone(ecu, zone string) { ms.zones[ecu] = zone }

// SetFailureNotifier wires breaker trips to an external failure
// detector — typically reconfig.Orchestrator.NotifyFailure, so a
// tripped edge both routes around the instance (mesh) and triggers
// re-placement of the provider (orchestrator).
func (ms *Mesh) SetFailureNotifier(fn func(ecu, reason string)) { ms.notify = fn }

// Offer registers ep as a provider instance of the logical service
// iface. Multiple endpoints may offer the same iface; each becomes a
// balancing target. The instance is carried by an ordinary middleware
// service named "<iface>#<app>", so discovery, wire transfer, dedupe
// and Endpoint.Migrate apply per instance.
func (ms *Mesh) Offer(ep *Endpoint, iface string, opts OfferOpts) {
	svc, ok := ms.svcs[iface]
	if !ok {
		svc = &meshService{name: iface}
		ms.svcs[iface] = svc
		ms.svcNames = append(ms.svcNames, iface)
		sort.Strings(ms.svcNames)
	}
	for _, inst := range svc.insts {
		if inst.app == ep.App() {
			panic(fmt.Sprintf("soa: %s already offers mesh service %s", ep.App(), iface))
		}
	}
	instIface := iface + "#" + ep.App()
	ep.Offer(instIface, opts)
	inst := &meshInstance{ms: ms, svc: svc, ep: ep, app: ep.App(), iface: instIface}
	svc.insts = append(svc.insts, inst)
	sort.Slice(svc.insts, func(i, j int) bool { return svc.insts[i].app < svc.insts[j].app })
	if ms.k.Tracing() {
		ms.k.Trace("mesh", "%s offers %s (instance %d)", ep.App(), iface, len(svc.insts))
	}
}

// InstanceStat is one replica's routing view (test and table hook).
type InstanceStat struct {
	App        string
	ECU        string
	Down       bool
	Dispatched int64
	Pending    int // dispatched + queued
}

// InstanceStats returns the per-replica routing state of a service in
// instance order.
func (ms *Mesh) InstanceStats(iface string) []InstanceStat {
	svc := ms.svcs[iface]
	if svc == nil {
		return nil
	}
	out := make([]InstanceStat, len(svc.insts))
	for i, inst := range svc.insts {
		out[i] = InstanceStat{
			App: inst.app, ECU: inst.ep.ECU(),
			Down:       ms.downECU[inst.ep.ECU()],
			Dispatched: inst.Dispatched,
			Pending:    inst.load(),
		}
	}
	return out
}

// CrossZone counts zone-local fallbacks that crossed zones for iface.
func (ms *Mesh) CrossZone(iface string) int64 {
	if svc := ms.svcs[iface]; svc != nil {
		return svc.crossZone
	}
	return 0
}

// Outstanding counts offered calls not yet settled.
func (ms *Mesh) Outstanding() int64 { return ms.outstanding }

// Conserved reports the admission arithmetic at quiescence: every
// offered call was served, shed or dead-lettered — nothing vanished.
func (ms *Mesh) Conserved() bool {
	return ms.outstanding == 0 &&
		ms.Offered == ms.Served+ms.Shed+ms.DeadLettered
}

// MarkECUDown evicts (down=true) or re-admits (down=false) every
// instance hosted on ecu: the balancer stops selecting evicted
// instances immediately, their queued calls re-route to surviving
// replicas, and middleware service discovery stops answering for the
// dead ECU (Middleware.SetECUDown). Location is read through the
// instance's endpoint, so a provider migrated off a down ECU is
// eligible again without bookkeeping.
func (ms *Mesh) MarkECUDown(ecu string, down bool) {
	ms.downECU[ecu] = down
	ms.m.SetECUDown(ecu, down)
	if !down {
		return
	}
	ms.depth++
	defer ms.exit()
	for _, name := range ms.svcNames {
		for _, inst := range ms.svcs[name].insts {
			if inst.ep.ECU() != ecu || inst.queue.Len() == 0 {
				continue
			}
			q := inst.queue.Items()
			inst.queue = network.FIFO[*meshCall]{}
			for _, c := range q {
				if c.settled {
					continue
				}
				c.queuedOn = nil
				ms.Reroutes++
				c.route()
			}
		}
	}
}

// ECULifecycle returns the eviction/re-admission hook pair for a fault
// campaign: pass it to faults.Campaign.HookECULifecycle so silencing
// ECU faults (crash, hang, reboot) evict the ECU's instances from
// routing and discovery at the exact injection instant, and repair
// re-admits them. (The mesh deliberately does not import the faults
// package; the campaign's generic up/down hook carries the glue.)
func (ms *Mesh) ECULifecycle() (onDown, onUp func(ecu string)) {
	return func(ecu string) { ms.MarkECUDown(ecu, true) },
		func(ecu string) { ms.MarkECUDown(ecu, false) }
}

// Call performs one logical RPC through the mesh: select an instance
// (balance.go, skipping down instances and open breakers), admit it
// against the instance queue (shed.go), dispatch with a per-attempt
// timeout, and retry around failures per opts.Retry. done receives the
// response; onFail receives the terminal classification (shed or
// dead-letter). Exactly one of them fires for every call that Call
// accepts, within Retry.Budget when set — the conservation contract.
func (ms *Mesh) Call(client *Endpoint, iface string, opts MeshCallOpts,
	done func(Event), onFail func(FailReason)) error {
	svc, ok := ms.svcs[iface]
	if !ok {
		return &ErrNoService{Iface: iface}
	}
	if opts.PerTry <= 0 {
		return fmt.Errorf("soa: non-positive mesh per-attempt timeout")
	}
	if !ms.m.auth.Authorize(client.app, iface) {
		ms.m.DeniedBindings++
		ms.k.Trace("mesh", "DENIED call %s -> %s", client.app, iface)
		return &ErrUnauthorized{Client: client.app, Iface: iface}
	}
	ms.depth++
	ms.m.next.session++
	c := ms.calls.Get()
	ms.m.next.number++
	c.id = ms.m.next.number
	c.ms, c.client, c.svc = ms, client, svc
	c.crit = opts.Criticality
	c.opts = opts
	c.issued = ms.k.Now()
	c.done, c.onFail = done, onFail
	c.retry = opts.Retry.ladder(ms.m, ms.m.next.session, c.issued)
	ms.Offered++
	ms.outstanding++
	ms.observeOffered(svc)
	if b := c.retry.pol.Budget; b > 0 {
		c.budgetRef = ms.k.AfterCallRef(b, meshBudget, c)
	}
	c.route()
	ms.exit()
	return nil
}

// meshCall is one logical call moving through the mesh: routed,
// possibly queued, dispatched once per attempt, and finally settled
// exactly once as served, shed or dead-lettered. Records come from
// Mesh.calls. A call has at most one open attempt, because the next
// attempt is dispatched only after the previous one resolved (by
// response, timeout or synchronous failure), so the attempt's state
// lives in the record too.
//
// id numbers this incarnation of the record and attempt the current
// attempt, both drawn from the middleware's counter (Middleware.next,
// which numbers CallRetry calls too): every attempt of an incarnation
// has a number above its id, and a later incarnation of the same
// record has an id above all of them. A response carries its attempt's
// number (meshResponse) and counts only if that number is above the
// record's id, so a response that outlives its call is ignored whether
// the record sits in the pool (id 0) or serves a newer call.
type meshCall struct {
	ms     *Mesh
	client *Endpoint
	svc    *meshService
	crit   Criticality
	opts   MeshCallOpts
	issued sim.Time
	retry  retryLadder // the same ladder CallRetry climbs

	id, attempt uint64

	settled  bool
	queuedOn *meshInstance

	// open marks the current attempt as unresolved: it holds a slot at
	// inst, its outcome goes to br (the edge breaker, nil when breakers
	// are disabled) as a probe when probe is set, and timer is its
	// per-attempt timeout, kept so a response cancels it.
	open  bool
	inst  *meshInstance
	br    *Breaker
	probe bool
	timer sim.EventRef

	// budgetRef / retryRef are durable timer handles, kept so settling
	// cancels them (droppedref contract).
	budgetRef sim.EventRef
	retryRef  sim.EventRef

	done   func(Event)
	onFail func(FailReason)
}

// exit leaves one entry into the mesh (Call, a timer handler, a
// response, MarkECUDown). When the outermost entry returns, no frame
// still holds a call record, so the calls released meanwhile go back
// to the pool.
func (ms *Mesh) exit() {
	ms.depth--
	if ms.depth > 0 {
		return
	}
	for i, c := range ms.released {
		ms.calls.Put(c)
		ms.released[i] = nil
	}
	ms.released = ms.released[:0]
}

// release queues c for recycling once it is settled and its attempt
// resolved. A call settles once and opens no attempt after that, so
// the condition turns true once per incarnation and c is queued at most
// once.
func (c *meshCall) release() {
	if c.settled && !c.open {
		c.ms.released = append(c.ms.released, c)
	}
}

// eligible filters the service's instances by health and breaker state
// into the mesh's scratch list, valid until the next eligible call.
func (c *meshCall) eligible() []*meshInstance {
	elig := c.ms.elig[:0]
	for _, inst := range c.svc.insts {
		if c.ms.downECU[inst.ep.ECU()] {
			continue
		}
		if br := c.ms.breakers[edge{c.client.app, inst}]; br != nil && br.blocks() {
			continue
		}
		elig = append(elig, inst)
	}
	c.ms.elig = elig
	return elig
}

// route selects an instance for the current attempt and admits the
// call there; with no eligible instance the attempt fails and the
// retry ladder decides (routing around the outage or dead-lettering).
func (c *meshCall) route() {
	if c.settled {
		return
	}
	elig := c.eligible()
	if len(elig) == 0 {
		c.retryOrFail()
		return
	}
	c.ms.admit(c.ms.pick(c.svc, c.client, elig), c)
}

// retryOrFail advances the retry ladder after a failed attempt.
func (c *meshCall) retryOrFail() {
	if c.settled {
		return
	}
	wait, giveUp := c.retry.next(c.ms.k.Now())
	if giveUp != "" {
		c.deadLetter(giveUp)
		return
	}
	c.ms.Retries++
	c.retryRef = c.ms.k.AfterCallRef(wait, meshRetry, c)
}

// meshBudget fires when a call's whole budget expires: wherever the
// call is (queued, between attempts, or with a response still
// possible), it settles as dead-lettered. An open attempt keeps its own
// timer, which releases the instance slot and records the breaker
// outcome.
func meshBudget(arg any) {
	c := arg.(*meshCall)
	ms := c.ms
	ms.depth++
	c.deadLetter("budget expired")
	ms.exit()
}

// meshRetry starts the next attempt after the retry backoff.
func meshRetry(arg any) {
	c := arg.(*meshCall)
	ms := c.ms
	ms.depth++
	c.route()
	ms.exit()
}

// settle flips the call settled and cancels its durable timers.
func (c *meshCall) settle() {
	c.settled = true
	if c.budgetRef.Pending() {
		c.budgetRef.Cancel()
	}
	if c.retryRef.Pending() {
		c.retryRef.Cancel()
	}
	if c.queuedOn != nil {
		c.queuedOn.removeQueued(c)
	}
	c.release()
}

// serve settles the call with a response.
func (c *meshCall) serve(ev Event) {
	if c.settled {
		return
	}
	c.settle()
	ms := c.ms
	ms.Served++
	ms.outstanding--
	now := ms.k.Now()
	// The event reports whole-call latency (queue wait + retries +
	// wire), not just the final attempt's round trip.
	ev.Published = c.issued
	ev.Delivered = now
	if c.svc.obsServed != nil {
		c.svc.obsServed.Inc()
		c.svc.obsLat.Observe(now.Sub(c.issued))
	}
	if c.done != nil {
		c.done(ev)
	}
}

// shedCall settles a call as shed by overload admission.
func (ms *Mesh) shedCall(c *meshCall) {
	if c.settled {
		return
	}
	c.settle()
	ms.Shed++
	ms.ShedByCrit[c.crit]++
	if c.crit >= protectFrom {
		ms.ShedProtected++
	}
	ms.outstanding--
	if c.svc.obsShed != nil {
		c.svc.obsShed.Inc()
	}
	if ms.k.Tracing() {
		ms.k.Trace("mesh", "shed %s call of %s (%s)", c.svc.name, c.client.app, c.crit)
	}
	if c.onFail != nil {
		c.onFail(FailShed)
	}
}

// deadLetter settles a call as dead-lettered (dropped with account).
func (c *meshCall) deadLetter(why string) {
	if c.settled {
		return
	}
	c.settle()
	ms := c.ms
	ms.DeadLettered++
	ms.outstanding--
	if c.svc.obsDead != nil {
		c.svc.obsDead.Inc()
	}
	if ms.k.Tracing() {
		ms.k.Trace("mesh", "dead-lettered %s call of %s: %s", c.svc.name, c.client.app, why)
	}
	if c.onFail != nil {
		c.onFail(FailDeadLetter)
	}
}

// edge identifies a client→instance breaker edge: the calling
// application and the provider instance.
type edge struct {
	client string
	inst   *meshInstance
}

// breaker returns (creating lazily) the edge breaker, or nil when
// breakers are disabled.
func (ms *Mesh) breaker(client *Endpoint, inst *meshInstance) *Breaker {
	if ms.cfg.Breaker == nil {
		return nil
	}
	key := edge{client.app, inst}
	br := ms.breakers[key]
	if br == nil {
		br = newBreaker(ms, client.app, inst, *ms.cfg.Breaker)
		ms.breakers[key] = br
	}
	return br
}

// dispatch opens an attempt at inst. Called with a free service slot
// (admission) or from the queue pump.
func (ms *Mesh) dispatch(inst *meshInstance, c *meshCall) {
	if c.settled {
		return
	}
	br := ms.breaker(c.client, inst)
	if br != nil && br.blocks() {
		// The edge tripped while the call waited: route around it.
		c.route()
		return
	}
	tryTimeout := c.retry.tryTimeout(ms.k.Now(), c.opts.PerTry)
	if tryTimeout <= 0 {
		c.deadLetter("budget exhausted before dispatch")
		return
	}
	probe := br != nil && br.state == BreakerHalfOpen
	if probe {
		br.probing = true
	}
	inst.active++
	inst.Dispatched++
	ms.m.next.number++
	c.attempt = ms.m.next.number
	c.open, c.inst, c.br, c.probe = true, inst, br, probe
	c.timer = ms.k.AfterCallRef(tryTimeout, meshTimeout, c)
	if err := c.client.call(inst.iface, c.retry.session, c.opts.ReqBytes, nil, meshResponse, c, c.attempt); err != nil {
		// Synchronous dispatch failure (no handler at the instance):
		// resolve this attempt immediately as failed.
		c.resolve(true)
		c.retryOrFail()
	}
}

// resolve closes the open attempt: timer canceled, slot back, breaker
// outcome recorded, queue pumped.
func (c *meshCall) resolve(failure bool) {
	c.open = false
	if c.timer.Pending() {
		c.timer.Cancel()
	}
	inst := c.inst
	inst.active--
	if c.br != nil {
		if failure {
			c.br.failure(c.probe)
		} else {
			c.br.success(c.probe)
		}
	}
	c.release()
	c.ms.pump(inst)
}

// meshResponse completes an attempt with the provider's answer; tag is
// the attempt's number. A response that outlived its call is ignored
// (see meshCall). A late response of an earlier attempt — one its
// timeout already resolved — still serves the logical call if nothing
// else settled it first (the same any-response-wins semantics as
// retryResponse).
func meshResponse(arg any, tag uint64, ev Event) {
	c := arg.(*meshCall)
	if c.id == 0 || tag <= c.id {
		return
	}
	ms := c.ms
	ms.depth++
	if c.open && tag == c.attempt {
		c.resolve(false)
	}
	c.serve(ev)
	ms.exit()
}

// meshTimeout expires the open attempt: failure on the edge, next rung
// of the retry ladder for the call.
func meshTimeout(arg any) {
	c := arg.(*meshCall)
	ms := c.ms
	ms.depth++
	ms.Timeouts++
	c.resolve(true)
	c.retryOrFail()
	ms.exit()
}

// pump dispatches queued calls into freed service slots, discarding
// settled tombstones.
func (ms *Mesh) pump(inst *meshInstance) {
	for inst.active < ms.cfg.Concurrency && inst.queue.Len() > 0 {
		c := inst.queue.Pop()
		c.queuedOn = nil
		if c.settled {
			continue
		}
		ms.dispatch(inst, c)
	}
}

// onBreakerTrip fans a trip out to counters, traces and the failure
// notifier (reconfig integration).
func (ms *Mesh) onBreakerTrip(b *Breaker, from BreakerState) {
	ms.BreakerTrips++
	ms.k.Trace("mesh", "breaker %s->%s OPEN (from %s)", b.client, b.inst.app, from)
	if ms.notify != nil {
		ms.notify(b.inst.ep.ECU(), "mesh-breaker "+b.client+"->"+b.inst.app)
	}
}

// observeOffered lazily wires the per-service mesh instruments and
// counts one offered call. Instruments exist only while the middleware
// has an obs plane; the disabled path costs one nil check.
func (ms *Mesh) observeOffered(svc *meshService) {
	if ms.m.o == nil {
		return
	}
	if svc.obsOffered == nil {
		l := obs.Labels{Layer: "mesh", Iface: svc.name}
		reg := ms.m.o.Metrics()
		svc.obsOffered = reg.Counter("mesh_offered", l)
		svc.obsServed = reg.Counter("mesh_served", l)
		svc.obsShed = reg.Counter("mesh_shed", l)
		svc.obsDead = reg.Counter("mesh_dead_letters", l)
		svc.obsLat = reg.Histogram("mesh_call_latency", l)
	}
	svc.obsOffered.Inc()
}
