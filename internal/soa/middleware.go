package soa

import (
	"fmt"
	"sort"

	"dynaplat/internal/network"
	"dynaplat/internal/obs"
	"dynaplat/internal/sim"
)

// Authorizer decides whether a client application may bind an interface.
// The security/auth package provides the model-derived implementation
// (Section 4.2); AllowAll is the permissive default.
type Authorizer interface {
	Authorize(client, iface string) bool
}

// AllowAll authorizes every binding.
type AllowAll struct{}

// Authorize implements Authorizer.
func (AllowAll) Authorize(string, string) bool { return true }

// ErrUnauthorized reports a binding rejected by the Authorizer.
type ErrUnauthorized struct{ Client, Iface string }

func (e *ErrUnauthorized) Error() string {
	return fmt.Sprintf("soa: %s is not authorized for %s", e.Client, e.Iface)
}

// ErrNoService reports a find/bind against an interface nobody offers.
type ErrNoService struct{ Iface string }

func (e *ErrNoService) Error() string { return fmt.Sprintf("soa: no provider offers %s", e.Iface) }

// LocalDelay is the IPC cost of same-ECU delivery.
const LocalDelay = 5 * sim.Microsecond

// Middleware is the communication core of the dynamic platform. One
// instance spans the whole vehicle (it is "logically located across
// multiple hardware elements", Section 1.1).
type Middleware struct {
	k    *sim.Kernel
	auth Authorizer
	nets map[string]*netInfo
	svcs map[string]*service
	eps  map[string]*Endpoint // by app name
	next struct {
		serviceID uint32
		session   uint32
		// number numbers the incarnations and attempts of CallRetry
		// and mesh calls (retryCall, meshCall), so a response can tell
		// whether the call it answers is still live.
		number uint64
	}

	// DeniedBindings counts authorization rejections.
	DeniedBindings int64
	// QoSDeadlineMisses counts supervised subscription-gap violations.
	QoSDeadlineMisses int64
	// StalePublishes counts publications by superseded providers that
	// were dropped during update redirects.
	StalePublishes int64
	// RPCTimeouts counts CallRetry per-attempt timeouts.
	RPCTimeouts int64

	// Resilience counters (see retry.go and reliable.go).

	// RetryAttempts counts re-issued RPC attempts (excluding firsts).
	RetryAttempts int64
	// RetryRecovered counts calls that succeeded after >= 1 retry.
	RetryRecovered int64
	// RetryExhausted counts calls that failed after the retry policy
	// ran out of attempts or budget.
	RetryExhausted int64
	// DuplicatesSuppressed counts provider-side handler invocations
	// skipped because the session was already served (idempotent
	// retries: the cached response is replayed instead).
	DuplicatesSuppressed int64
	// SeqGaps counts sequence discontinuities observed by reliable
	// subscriptions; GapEventsRecovered / GapEventsUnrecoverable split
	// the missing events by re-request outcome.
	SeqGaps                int64
	GapEventsRecovered     int64
	GapEventsUnrecoverable int64
	// DeadLetters counts deliveries dropped because the subscribing
	// endpoint was unsubscribed or removed while the frame was in
	// flight (dropped-with-account, never delivered to a dead
	// subscriber).
	DeadLetters int64

	// attachedStations is the set of stations attached so far. Transfers
	// consult it only when an endpoint's remembered attachment
	// (Endpoint.attach) does not match.
	attachedStations map[stationKey]bool
	// attachOrder records every station attachment as "net/ecu" in the
	// order ensureAttached performed it. Attach order is visible in
	// delivery dispatch and trace output, so differential oracles
	// (internal/fuzz) fingerprint it through AttachOrder to catch
	// iteration-order regressions mechanically.
	attachOrder []string

	// ecuDown marks ECUs silenced by a fault (crash/hang/reboot): their
	// providers stop answering service discovery until repair (see
	// SetECUDown and discovery.go). Routing layers above — the mesh —
	// additionally stop selecting instances hosted there.
	ecuDown map[string]bool

	// jitterSeed salts the per-session retry-jitter streams
	// (sessionJitter); fixed per middleware so jitter draws are a pure
	// function of (seed, session) regardless of global RNG ordering.
	jitterSeed uint64

	// o is the kernel's obs plane (obs.Of), nil when unobserved. It
	// receives metrics and publish→deliver spans. All uses are
	// nil-checked. soaRef, deliverRef and deadRef are the trace IDs of
	// the spans' category and name and of the dead-letter detail,
	// resolved on the first observed publish.
	o                           *obs.Obs
	soaRef, deliverRef, deadRef obs.Ref

	// dels, segs, rpcs and retries recycle delivery, segmentation, RPC
	// and CallRetry records, so the publish→deliver and
	// request→response hot paths are allocation-free in steady state.
	dels    network.Pool[delivery]
	segs    network.Pool[segState]
	rpcs    network.Pool[rpcCall]
	retries network.Pool[retryCall]

	// Service-discovery state (see discovery.go).
	sdToken   uint64
	sdWaiters map[uint64]func(sdOffer)
}

type netInfo struct {
	net network.Network
	mtu int
}

// stationKey names one ECU's station on one network. It keys the
// attached-station set without building a "net/ecu" string per transfer.
type stationKey struct {
	*netInfo
	ecu string
}

// service is one offered interface.
type service struct {
	name     string
	id       uint32
	provider *Endpoint
	class    network.Class
	net      *netInfo // carrying network; nil = local-only
	handler  Handler
	subs     []*subscription
	version  int

	// Latency samples enqueue→handler delivery for events and frames,
	// and round-trip time for RPC.
	Latency sim.Stats

	// History retention for late joiners (see qos.go): history is a
	// ring of historyCap events, allocated by EnableHistory, whose
	// histLen newest end just before histNext. histLen never exceeds
	// historyDepth after a publish.
	historyDepth      int
	history           []Event
	histNext, histLen int

	// pubSeq numbers PublishSeq publications (gap detection,
	// reliable.go).
	pubSeq uint32

	// Cached observability instruments and the trace ID of track
	// "soa:"+name (created on first publish when the middleware has an
	// obs plane; nil or 0 otherwise).
	track      obs.Ref
	obsPub     *obs.Counter
	obsDeliver *obs.Counter
	obsDead    *obs.Counter
	obsLat     *obs.Histogram

	// served caches responses by session for idempotent retries
	// (bounded, oldest evicted first; see retry.go).
	served servedCache
}

type subscription struct {
	ep *Endpoint
	fn func(Event)
	// label is the trace ID of the observed delivery span's
	// "provider->subscriber" name, built and resolved for provider
	// labelFor and again only when the provider changes (observed
	// middlewares only).
	label    obs.Ref
	labelFor string
	// QoS deadline supervision (see qos.go).
	deadline       sim.Duration
	lastRx         sim.Time
	deadlineMisses int64
	// superRef is the currently armed supervision timer; canceled when
	// the subscription is dropped so no kernel event leaks.
	superRef sim.EventRef
	// gone marks the subscription as dropped (Unsubscribe /
	// RemoveEndpoint). In-flight deliveries check it and dead-letter
	// instead of invoking fn.
	gone bool
}

// drop marks the subscription dead and cancels its supervision timer.
func (s *subscription) drop() {
	s.gone = true
	if s.superRef.Pending() {
		s.superRef.Cancel()
	}
}

// Event is a delivered publication or stream frame.
type Event struct {
	Iface   string
	Seq     uint32
	Bytes   int
	Payload any
	// Published is when the producer published; Delivered is receipt.
	Published sim.Time
	Delivered sim.Time
	// Recovered marks an event back-filled by a reliable subscription's
	// re-request (reliable.go) rather than delivered fresh.
	Recovered bool
}

// Latency returns publish→delivery latency.
func (e Event) Latency() sim.Duration { return e.Delivered.Sub(e.Published) }

// Handler serves RPC requests: it receives the request payload and
// returns the response payload size and value, plus the virtual
// processing time the provider needs.
type Handler func(req any) (respBytes int, resp any, proc sim.Duration)

// New creates a middleware on the kernel with the given authorizer
// (nil means AllowAll).
func New(k *sim.Kernel, auth Authorizer) *Middleware {
	if auth == nil {
		auth = AllowAll{}
	}
	return &Middleware{
		k:         k,
		auth:      auth,
		nets:      map[string]*netInfo{},
		svcs:      map[string]*service{},
		eps:       map[string]*Endpoint{},
		sdWaiters: map[uint64]func(sdOffer){},
		o:         obs.Of(k),
	}
}

// SetECUDown marks (or clears) an ECU as silenced by a fault. While
// down, its providers do not answer service discovery — neither the
// instant local-registry path nor the wire SOME/IP-SD path — so a
// Discover against a crashed provider times out instead of returning a
// stale listing. Fault campaigns drive this via Mesh.HookCampaign (or
// directly from their own OnInject/OnRepair hooks).
func (m *Middleware) SetECUDown(ecu string, down bool) {
	if m.ecuDown == nil {
		m.ecuDown = map[string]bool{}
	}
	m.ecuDown[ecu] = down
}

// ECUDown reports whether an ECU is currently marked down.
func (m *Middleware) ECUDown(ecu string) bool { return m.ecuDown[ecu] }

// SetJitterSeed salts the per-session retry-jitter streams. The default
// (zero) is valid; experiments set a distinct seed per run so jitter
// decorrelates across cells while staying reproducible.
func (m *Middleware) SetJitterSeed(seed uint64) { m.jitterSeed = seed }

// sessionJitter seeds r as the jitter stream of one RPC session. Each
// session gets its own splitmix-derived stream, so the draws a retrying
// call makes are independent of every other session's — interleaved
// retries consume nothing from a shared RNG, which keeps parallel
// experiment replays byte-identical (experiments.RunTables).
func (m *Middleware) sessionJitter(r *sim.RNG, session uint32) {
	r.Seed(m.jitterSeed ^ 0x9E3779B97F4A7C15*uint64(session) ^ 0xD1B54A32D192ED03)
}

// AddNetwork registers a simulated network and its MTU for payload
// segmentation.
func (m *Middleware) AddNetwork(n network.Network, mtu int) {
	if mtu <= 0 {
		panic("soa: MTU must be positive")
	}
	ni := &netInfo{net: n, mtu: mtu}
	if old := m.nets[n.Name()]; old != nil {
		// A re-registered network replaces the one its services carry on.
		for _, svc := range m.svcs {
			if svc.net == old {
				svc.net = ni
			}
		}
	}
	m.nets[n.Name()] = ni
}

// Endpoint registers (or returns) the endpoint for an application
// instance on an ECU. The middleware attaches the endpoint's station to
// every registered network lazily on first use.
func (m *Middleware) Endpoint(app, ecu string) *Endpoint {
	if ep, ok := m.eps[app]; ok {
		return ep
	}
	ep := &Endpoint{m: m, app: app, ecu: ecu}
	m.eps[app] = ep
	return ep
}

// EndpointOf returns an application's registered endpoint, or nil when
// the app never touched the middleware — unlike Endpoint it never
// creates one (the reconfig orchestrator uses it to migrate only the
// endpoints that exist).
func (m *Middleware) EndpointOf(app string) *Endpoint { return m.eps[app] }

// RemoveEndpoint tears an application's endpoint down: its offers vanish
// from discovery and its subscriptions are dropped (used when stopping or
// updating apps).
func (m *Middleware) RemoveEndpoint(app string) {
	ep, ok := m.eps[app]
	if !ok {
		return
	}
	delete(m.eps, app)
	for name, svc := range m.svcs {
		if svc.provider == ep {
			// The whole service vanishes: every remaining subscription
			// dies with it (supervision timers must not leak).
			for _, s := range svc.subs {
				s.drop()
			}
			delete(m.svcs, name)
			continue
		}
		kept := svc.subs[:0]
		for _, s := range svc.subs {
			if s.ep != ep {
				kept = append(kept, s)
			} else {
				s.drop()
			}
		}
		svc.subs = kept
	}
}

// Find looks an offered interface up (service discovery). It returns the
// provider app name and interface version.
func (m *Middleware) Find(iface string) (provider string, version int, err error) {
	svc, ok := m.svcs[iface]
	if !ok {
		return "", 0, &ErrNoService{Iface: iface}
	}
	return svc.provider.app, svc.version, nil
}

// Services returns the sorted names of all offered interfaces.
func (m *Middleware) Services() []string {
	out := make([]string, 0, len(m.svcs))
	for n := range m.svcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AttachOrder returns the station-attachment history ("net/ecu" per
// entry) in the order the attachments happened. The sequence is part of
// the externally visible behavior — it decides receiver registration
// order on every bus — so it must be a pure function of the scenario;
// internal/fuzz folds it into the run fingerprint.
func (m *Middleware) AttachOrder() []string {
	return append([]string(nil), m.attachOrder...)
}

// Endpoints returns the sorted names of all registered endpoints, so
// teardown code (quiesce audits) can remove every endpoint without
// tracking them separately.
func (m *Middleware) Endpoints() []string {
	out := make([]string, 0, len(m.eps))
	for n := range m.eps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ServiceLatency returns the latency statistics recorded for an interface.
func (m *Middleware) ServiceLatency(iface string) *sim.Stats {
	if svc, ok := m.svcs[iface]; ok {
		return &svc.Latency
	}
	return &sim.Stats{}
}

// Endpoint is an application's port into the middleware.
type Endpoint struct {
	m   *Middleware
	app string
	ecu string

	// attNet / attECU are the network and ECU this endpoint's station was
	// last attached for (attach). Migrate changes ecu, so the next
	// transfer goes back to the middleware's station set.
	attNet *netInfo
	attECU string
}

// App returns the owning application name.
func (e *Endpoint) App() string { return e.app }

// ECU returns the hosting ECU name.
func (e *Endpoint) ECU() string { return e.ecu }

// Migrate moves the endpoint to another ECU (used by failover and DSE
// what-if simulation). Offered services keep their identity. The
// destination ECU's station is attached to every network the endpoint's
// offers use, so the migrated provider answers service discovery and
// publishes immediately — without waiting for a first transfer to attach
// it lazily.
func (e *Endpoint) Migrate(ecu string) {
	e.ecu = ecu
	// Attach in sorted network order: station attach order is visible in
	// delivery dispatch and trace output, so it must not follow map
	// iteration order.
	var nets []*netInfo
	for _, svc := range e.m.svcs {
		if svc.provider == e && svc.net != nil {
			nets = append(nets, svc.net)
		}
	}
	if !BugUnsortedMigrateAttach {
		sort.Slice(nets, func(i, j int) bool { return nets[i].net.Name() < nets[j].net.Name() })
	}
	for _, ni := range nets {
		e.attach(ni)
	}
}

// OfferOpts configures an offered interface.
type OfferOpts struct {
	// Class is the traffic class on the wire (default ClassPriority).
	Class network.Class
	// Network names the carrying network for cross-ECU consumers;
	// "" restricts the service to same-ECU consumers.
	Network string
	// Handler serves RPC requests (Message paradigm only).
	Handler Handler
	// Version is the interface contract version (default 1).
	Version int
}

// Offer publishes an interface into service discovery. Re-offering an
// interface updates its provider (used by staged updates).
func (e *Endpoint) Offer(iface string, opts OfferOpts) {
	var ni *netInfo
	if opts.Network != "" {
		var ok bool
		if ni, ok = e.m.nets[opts.Network]; !ok {
			panic(fmt.Sprintf("soa: offer %s on unregistered network %q", iface, opts.Network))
		}
	}
	if opts.Version == 0 {
		opts.Version = 1
	}
	svc, ok := e.m.svcs[iface]
	if !ok {
		e.m.next.serviceID++
		svc = &service{name: iface, id: e.m.next.serviceID}
		e.m.svcs[iface] = svc
	}
	svc.provider = e
	svc.class = opts.Class
	svc.net = ni
	svc.handler = opts.Handler
	svc.version = opts.Version
	if ni != nil {
		// Attach eagerly so the provider's station answers discovery.
		e.attach(ni)
	}
	if e.m.k.Tracing() {
		e.m.k.TraceLine("soa", sim.TraceLine{Form: sim.LineSOAOffer,
			S: [3]string{e.app, iface, opts.Network}, I: [3]int64{int64(svc.version)}})
	}
}

// Subscribe binds the endpoint to an Event or Stream interface. The
// binding is authorized first (Section 4.2); unauthorized bindings fail
// and are counted.
func (e *Endpoint) Subscribe(iface string, fn func(Event)) error {
	svc, ok := e.m.svcs[iface]
	if !ok {
		return &ErrNoService{Iface: iface}
	}
	if !e.m.auth.Authorize(e.app, iface) {
		e.m.DeniedBindings++
		e.m.k.Trace("soa", "DENIED subscribe %s -> %s", e.app, iface)
		return &ErrUnauthorized{Client: e.app, Iface: iface}
	}
	svc.subs = append(svc.subs, &subscription{ep: e, fn: fn})
	if e.m.k.Tracing() {
		e.m.k.Trace("soa", "%s subscribed to %s", e.app, iface)
	}
	return nil
}

// Unsubscribe removes this endpoint's subscriptions to iface.
func (e *Endpoint) Unsubscribe(iface string) {
	svc, ok := e.m.svcs[iface]
	if !ok {
		return
	}
	kept := svc.subs[:0]
	for _, s := range svc.subs {
		if s.ep != e {
			kept = append(kept, s)
		} else {
			s.drop()
		}
	}
	svc.subs = kept
}

// Publish sends bytes (with an opaque payload value) to every subscriber
// of an Event interface the endpoint owns.
func (e *Endpoint) Publish(iface string, bytes int, payload any) {
	e.publish(iface, 0, bytes, payload)
}

func (e *Endpoint) publish(iface string, seq uint32, bytes int, payload any) {
	svc, ok := e.m.svcs[iface]
	if !ok {
		panic(fmt.Sprintf("soa: %s publishes unoffered interface %s", e.app, iface))
	}
	if svc.provider != e {
		// A previous provider still emitting during an update's redirect
		// window (Section 3.2): traffic has been redirected, so the
		// stale publication is dropped, not delivered twice.
		e.m.StalePublishes++
		if e.m.k.Tracing() {
			e.m.k.Trace("soa", "dropped stale publish of %s by %s", iface, e.app)
		}
		return
	}
	now := e.m.k.Now()
	if e.m.o != nil {
		e.m.observePublish(svc, e)
	}
	if svc.historyDepth > 0 {
		svc.history[svc.histNext] = Event{
			Iface: iface, Seq: seq, Bytes: bytes, Payload: payload, Published: now,
		}
		svc.histNext = (svc.histNext + 1) % historyCap
		svc.histLen = min(svc.histLen+1, svc.historyDepth)
	}
	for _, sub := range svc.subs {
		d := e.m.dels.Get()
		d.m = e.m
		d.svc = svc
		d.sub = sub
		d.ev = Event{Iface: iface, Seq: seq, Bytes: bytes, Payload: payload, Published: now}
		if e.m.o != nil {
			d.sp = e.m.o.T.BeginRef(e.m.soaRef, e.m.deliverRef, svc.track, sub.labelFrom(e.m.o.T, e.app))
		}
		e.m.transferCall(svc, e, sub.ep, HeaderSize+bytes, deliverEvent, d)
	}
}

// delivery is a pooled publish→deliver record: everything the delivery
// callback needs, flattened so the hot path schedules one pre-bound
// handler with a pooled pointer instead of a fresh closure plus a boxed
// Event per subscriber.
type delivery struct {
	m   *Middleware
	svc *service
	sub *subscription
	sp  obs.Span
	ev  Event
}

// deliverEvent completes one publish→deliver: it is the pre-bound
// delivery handler scheduled by publish via transferCall, receiving its
// pooled *delivery record. The record returns to the pool before the
// subscriber callback runs, so a callback that publishes re-uses it
// immediately.
func deliverEvent(arg any) {
	d := arg.(*delivery)
	m, svc, sub := d.m, d.svc, d.sub
	if sub.gone {
		// The subscriber was unsubscribed or removed while the frame
		// was in flight: drop with account, never invoke a dead
		// subscriber.
		m.DeadLetters++
		if svc.obsDead != nil {
			svc.obsDead.Inc()
		}
		if m.o != nil {
			m.o.T.EndRef(m.soaRef, m.deliverRef, svc.track, d.sp, m.deadRef)
		}
		if m.k.Tracing() {
			m.k.Trace("soa", "dead-lettered %s event for removed %s", svc.name, sub.ep.app)
		}
		m.dels.Put(d)
		return
	}
	ev := d.ev
	ev.Delivered = m.k.Now()
	svc.Latency.AddDuration(ev.Latency())
	if svc.obsDeliver != nil {
		svc.obsDeliver.Inc()
		svc.obsLat.Observe(ev.Latency())
	}
	if m.o != nil {
		m.o.T.EndRef(m.soaRef, m.deliverRef, svc.track, d.sp, 0)
	}
	fn := sub.fn
	m.dels.Put(d)
	fn(ev)
}

// observePublish lazily wires the per-service instruments and trace
// IDs and counts one publication. Only called when an obs plane is
// installed.
func (m *Middleware) observePublish(svc *service, provider *Endpoint) {
	if svc.obsPub == nil {
		t := m.o.T
		if m.soaRef == 0 {
			m.soaRef, m.deliverRef, m.deadRef = t.Resolve("soa"), t.Resolve("deliver"), t.Resolve("dead-letter")
		}
		svc.track = t.Resolve("soa:" + svc.name)
		l := obs.Labels{Layer: "soa", ECU: provider.ecu, Iface: svc.name}
		reg := m.o.Metrics()
		svc.obsPub = reg.Counter("soa_publishes", l)
		svc.obsDeliver = reg.Counter("soa_deliveries", l)
		svc.obsDead = reg.Counter("soa_dead_letters", l)
		svc.obsLat = reg.Histogram("soa_deliver_latency", l)
	}
	svc.obsPub.Inc()
}

// labelFrom returns the ID in t of the subscription's delivery span
// name for events published by provider app.
func (s *subscription) labelFrom(t *obs.Trace, app string) obs.Ref {
	if s.label == 0 || s.labelFor != app {
		s.label = t.Resolve(app + "->" + s.ep.app)
		s.labelFor = app
	}
	return s.label
}

// Call performs the Message (RPC) paradigm: request to the provider,
// response back. done receives the response event. The call is
// authorized like a subscription.
func (e *Endpoint) Call(iface string, reqBytes int, req any, done func(Event)) error {
	return e.call(iface, 0, reqBytes, req, plainDone, done, 0)
}

// plainDone is the completion of Call: arg is its func(Event)
// (pointer-shaped, so boxing it allocates nothing).
func plainDone(arg any, _ uint64, ev Event) {
	if done := arg.(func(Event)); done != nil {
		done(ev)
	}
}

// call is the shared RPC core. dedupe, when non-zero, identifies a
// logical call across retries: the provider executes the handler once
// per session and replays the cached response for duplicates, so a
// retried request whose original was delivered (but whose response was
// lost) does not re-execute side effects. fn(arg, tag, ev) receives the
// response; tag is opaque to the middleware (CallRetry and the mesh
// number their attempts with it).
func (e *Endpoint) call(iface string, dedupe uint32, reqBytes int, req any,
	fn func(arg any, tag uint64, ev Event), arg any, tag uint64) error {
	svc, ok := e.m.svcs[iface]
	if !ok {
		return &ErrNoService{Iface: iface}
	}
	if !e.m.auth.Authorize(e.app, iface) {
		e.m.DeniedBindings++
		e.m.k.Trace("soa", "DENIED call %s -> %s", e.app, iface)
		return &ErrUnauthorized{Client: e.app, Iface: iface}
	}
	if svc.handler == nil {
		return fmt.Errorf("soa: interface %s has no RPC handler", iface)
	}
	e.m.next.session++
	r := e.m.rpcs.Get()
	r.m, r.svc, r.client, r.provider = e.m, svc, e, svc.provider
	r.dedupe, r.req, r.start = dedupe, req, e.m.k.Now()
	r.fn, r.arg, r.tag = fn, arg, tag
	e.m.transferCall(svc, e, r.provider, HeaderSize+reqBytes, rpcArrive, r)
	return nil
}

// rpcCall is one pooled request→response trip: it rides transferCall
// to the provider (rpcArrive), waits out the processing time (rpcProc),
// rides back (rpcReturn) and returns to the pool before its completion
// runs. A record whose request or response frame is lost never comes
// back; the garbage collector frees it.
type rpcCall struct {
	m                *Middleware
	svc              *service
	client, provider *Endpoint
	dedupe           uint32
	req              any
	start            sim.Time
	respBytes        int
	resp             any
	fn               func(arg any, tag uint64, ev Event)
	arg              any
	tag              uint64
}

// rpcArrive runs the handler for a request that reached the provider,
// or replays the cached response of a duplicate session.
func rpcArrive(arg any) {
	r := arg.(*rpcCall)
	m, svc := r.m, r.svc
	if r.dedupe != 0 {
		if cached, ok := svc.served.get(r.dedupe); ok {
			// Idempotency via the session number: the handler already
			// ran for this logical call; replay its response without
			// re-executing (and without re-paying processing time).
			m.DuplicatesSuppressed++
			if m.k.Tracing() {
				m.k.Trace("soa", "suppressed duplicate session %d of %s", r.dedupe, svc.name)
			}
			r.respBytes, r.resp = cached.bytes, cached.payload
			m.k.AfterCall(0, rpcProc, r)
			return
		}
	}
	respBytes, resp, proc := svc.handler(r.req)
	if proc < 0 {
		proc = 0
	}
	if r.dedupe != 0 {
		svc.served.add(r.dedupe, servedResp{bytes: respBytes, payload: resp})
	}
	r.respBytes, r.resp = respBytes, resp
	m.k.AfterCall(proc, rpcProc, r)
}

// rpcProc sends the response once the provider's processing time is up.
func rpcProc(arg any) {
	r := arg.(*rpcCall)
	r.m.transferCall(r.svc, r.provider, r.client, HeaderSize+r.respBytes, rpcReturn, r)
}

// rpcReturn completes the trip at the client: it records the round
// trip, recycles the record and then runs the completion, which may
// start another call with the same record.
func rpcReturn(arg any) {
	r := arg.(*rpcCall)
	m, svc := r.m, r.svc
	now := m.k.Now()
	svc.Latency.AddDuration(now.Sub(r.start))
	ev := Event{Iface: svc.name, Bytes: r.respBytes, Payload: r.resp,
		Published: r.start, Delivered: now}
	fn, fnArg, tag := r.fn, r.arg, r.tag
	m.rpcs.Put(r)
	fn(fnArg, tag, ev)
}

// transfer moves n wire bytes from src to dst endpoint, invoking done at
// full delivery. Same-ECU transfers cost LocalDelay; cross-ECU transfers
// are segmented to the network MTU and ride the simulated network.
func (m *Middleware) transfer(svc *service, src, dst *Endpoint, wireBytes int, done func()) {
	m.transferCall(svc, src, dst, wireBytes, callDone, done)
}

// callDone invokes a plain func() carried as a transferCall argument
// (func values are pointer-shaped, so the conversion does not allocate).
func callDone(arg any) { arg.(func())() }

// transferCall is transfer with a pre-bound completion: fn(arg) runs at
// full delivery. The local fast path schedules it closure-free via
// AfterCall; the cross-ECU path rides the simulated network, segmented
// to the MTU, with a pooled countdown record shared by the segments.
func (m *Middleware) transferCall(svc *service, src, dst *Endpoint, wireBytes int, fn func(any), arg any) {
	if src.ecu == dst.ecu {
		m.k.AfterCall(LocalDelay, fn, arg)
		return
	}
	ni := svc.net
	if ni == nil {
		panic(fmt.Sprintf("soa: interface %s is local-only but %s(%s) -> %s(%s)",
			svc.name, src.app, src.ecu, dst.app, dst.ecu))
	}
	src.attach(ni)
	dst.attach(ni)
	segments := (wireBytes + ni.mtu - 1) / ni.mtu
	if segments == 0 {
		segments = 1
	}
	st := m.segs.Get()
	st.remaining = segments
	st.fn = fn
	st.arg = arg
	for i := 0; i < segments; i++ {
		bytes := ni.mtu
		if i == segments-1 {
			bytes = wireBytes - (segments-1)*ni.mtu
		}
		ni.net.Send(network.Message{
			ID:      svc.id,
			Src:     src.ecu,
			Dst:     dst.ecu,
			Class:   svc.class,
			Bytes:   bytes,
			Payload: st,
		})
	}
}

// segState is a pooled per-transfer countdown shared by a transfer's
// segments as their network payload; the last segment to arrive fires
// the completion and recycles the record.
type segState struct {
	remaining int
	fn        func(any)
	arg       any
}

// attach makes sure e's station is attached to ni. It skips the
// middleware's station set when e was last attached for ni from its
// current ECU; stations are never detached, so that attachment still
// holds.
func (e *Endpoint) attach(ni *netInfo) {
	if e.attNet == ni && e.attECU == e.ecu {
		return
	}
	e.m.ensureAttached(ni, e.ecu)
	e.attNet, e.attECU = ni, e.ecu
}

// ensureAttached attaches an ECU station to a network on first use. The
// receiver dispatches segment completions.
func (m *Middleware) ensureAttached(ni *netInfo, ecu string) {
	key := stationKey{ni, ecu}
	if m.attachedStations[key] {
		return
	}
	if m.attachedStations == nil {
		m.attachedStations = map[stationKey]bool{}
	}
	m.attachedStations[key] = true
	m.attachOrder = append(m.attachOrder, ni.net.Name()+"/"+ecu)
	ni.net.Attach(ecu, func(d network.Delivery) {
		if m.handleSD(ecu, d) {
			return
		}
		if st, ok := d.Msg.Payload.(*segState); ok {
			st.remaining--
			if st.remaining == 0 {
				fn, arg := st.fn, st.arg
				m.segs.Put(st)
				fn(arg)
			}
		}
	})
}
