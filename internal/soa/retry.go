package soa

import (
	"fmt"
	"math/bits"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// Per-call retry with exponential backoff: the client-side half of the
// resilience layer. Frame loss, partitions and crashed providers all
// surface to an RPC client as a missing response; the retry policy turns
// transient instances of those into recovered calls while the session-
// keyed duplicate suppression in call() keeps the provider's handler
// exactly-once even when the *request* made it through and only the
// response was lost.

// RetryPolicy configures CallRetry.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (minimum 1). A policy of one attempt is a plain RPC timeout.
	MaxAttempts int
	// Backoff is the delay before the first retry; each further retry
	// doubles it up to MaxBackoff.
	Backoff sim.Duration
	// MaxBackoff caps the backoff growth (0 = uncapped).
	MaxBackoff sim.Duration
	// JitterFrac spreads each backoff uniformly over ±frac of itself,
	// drawn from a per-session seeded stream (Middleware.sessionJitter)
	// — deterministic per (jitter seed, session), decorrelated across
	// retrying clients, and immune to interleaving with other sessions.
	JitterFrac float64
	// Budget bounds the whole call (first attempt to final verdict).
	// Attempts that cannot complete a per-try timeout within the
	// remaining budget are not started. 0 = no budget.
	Budget sim.Duration
}

// normalized fills policy defaults.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Backoff <= 0 {
		p.Backoff = 2 * sim.Millisecond
	}
	if p.JitterFrac < 0 || p.JitterFrac > 1 {
		p.JitterFrac = 0
	}
	return p
}

// retryLadder is one logical call's climb up its RetryPolicy: failed
// attempts so far, the next backoff and the session's jitter stream.
// CallRetry's retryCall and the mesh's meshCall both climb it, so
// jitter, the budget check and backoff growth exist once.
type retryLadder struct {
	pol      RetryPolicy // normalized
	m        *Middleware
	session  uint32
	deadline sim.Time // zero without a budget
	attempt  int
	backoff  sim.Duration
	// jitter is this session's private backoff-jitter stream, seeded in
	// place on first use (jitterOn). Drawing from a per-session seeded
	// stream (instead of the shared kernel RNG) makes each call's jitter
	// a pure function of its session number: interleaved retries from
	// thousands of concurrent sessions cannot perturb each other's draws,
	// so overload sweeps replay byte-identically on any number of
	// RunTables workers.
	jitter   sim.RNG
	jitterOn bool
}

// ladder starts p's ladder for one session issued at start.
func (p RetryPolicy) ladder(m *Middleware, session uint32, start sim.Time) retryLadder {
	p = p.normalized()
	l := retryLadder{pol: p, m: m, session: session, backoff: p.Backoff}
	if p.Budget > 0 {
		l.deadline = start.Add(p.Budget)
	}
	return l
}

// tryTimeout clips an attempt's timeout to the budget left at now. A
// result ≤ 0 means the budget is spent.
func (l *retryLadder) tryTimeout(now sim.Time, perTry sim.Duration) sim.Duration {
	if l.deadline > 0 {
		if remaining := l.deadline.Sub(now); remaining < perTry {
			return remaining
		}
	}
	return perTry
}

// next climbs one rung after a failed attempt at now. It returns the
// jittered wait before the next attempt, or the reason the call must
// give up instead ("attempts exhausted", "budget exhausted").
func (l *retryLadder) next(now sim.Time) (wait sim.Duration, giveUp string) {
	l.attempt++
	if l.attempt >= l.pol.MaxAttempts {
		return 0, "attempts exhausted"
	}
	wait = l.backoff
	if l.pol.JitterFrac > 0 {
		if !l.jitterOn {
			l.m.sessionJitter(&l.jitter, l.session)
			l.jitterOn = true
		}
		span := sim.Duration(float64(wait) * l.pol.JitterFrac)
		wait += l.jitter.DurationRange(-span, span)
		if wait < 0 {
			wait = 0
		}
	}
	if l.deadline > 0 && now.Add(wait) >= l.deadline {
		return 0, "budget exhausted"
	}
	l.backoff = 2 * l.backoff
	if l.pol.MaxBackoff > 0 && l.backoff > l.pol.MaxBackoff {
		l.backoff = l.pol.MaxBackoff
	}
	return wait, ""
}

// CallRetry performs an RPC with a per-attempt timeout and the given
// retry policy. done receives the (first) response; onFail runs when the
// attempts or the budget are exhausted without a response. All attempts
// share one session number, so the provider suppresses duplicate handler
// executions. The synchronous error reports an immediate failure of the
// first attempt (unknown service, unauthorized, no handler); the call
// then ends without done or onFail.
func (e *Endpoint) CallRetry(iface string, reqBytes int, req any,
	perTry sim.Duration, pol RetryPolicy, done func(Event), onFail func()) error {
	if perTry <= 0 {
		return fmt.Errorf("soa: non-positive per-attempt timeout")
	}
	m := e.m
	m.next.session++
	c := m.retries.Get()
	c.e, c.iface, c.reqBytes, c.req, c.perTry = e, iface, reqBytes, req, perTry
	c.done, c.onFail = done, onFail
	c.retry = pol.ladder(m, m.next.session, m.k.Now())
	m.next.number++
	c.id = m.next.number
	m.next.number += uint64(c.retry.pol.MaxAttempts)
	if err := c.try(); err != nil {
		c.timer.Cancel()
		m.retries.Put(c)
		return err
	}
	return nil
}

// retryCall is one CallRetry, from the first attempt to its verdict.
// Records come from Middleware.retries. The call has one pending timer
// at a time: the open attempt's timeout, or the backoff before the next
// attempt.
//
// id numbers this incarnation of the record, drawn from the
// middleware's counter, which then skips the call's MaxAttempts
// numbers: attempt i (from 0) is number id+1+i and rides the RPC as its
// tag. A later incarnation of the same record has an id above all of
// them, so retryResponse counts a response only if its number is above
// the record's id: one that outlives its call is ignored whether the
// record sits in the pool (id 0) or serves a newer call.
type retryCall struct {
	e        *Endpoint
	iface    string
	reqBytes int
	req      any
	perTry   sim.Duration
	retry    retryLadder
	id       uint64
	timer    sim.EventRef
	done     func(Event)
	onFail   func()
}

// try opens the current attempt: its timeout, then the request tagged
// with its number. Re-resolving the service each attempt lets a retry
// reach a provider re-offered elsewhere after failover. The budget
// never runs out here: the first attempt starts with all of it, and
// the ladder refuses a backoff that would end at the deadline.
func (c *retryCall) try() error {
	m := c.e.m
	c.timer = m.k.AfterCallRef(c.retry.tryTimeout(m.k.Now(), c.perTry), retryTimeout, c)
	return c.e.call(c.iface, c.retry.session, c.reqBytes, c.req,
		retryResponse, c, c.id+1+uint64(c.retry.attempt))
}

// retryTimeout expires the open attempt: next rung of the ladder, or
// the verdict.
func retryTimeout(arg any) {
	c := arg.(*retryCall)
	m := c.e.m
	m.RPCTimeouts++
	wait, giveUp := c.retry.next(m.k.Now())
	if giveUp != "" {
		c.exhaust()
		return
	}
	m.RetryAttempts++
	c.timer = m.k.AfterCallRef(wait, retryBackoff, c)
}

// retryBackoff opens the next attempt once its backoff is up.
func retryBackoff(arg any) {
	c := arg.(*retryCall)
	if err := c.try(); err != nil {
		c.timer.Cancel()
		c.exhaust()
	}
}

// retryResponse settles the call with the provider's answer; tag is
// the number of the attempt that answered. A late response of an
// earlier attempt still serves a live call (any response wins); one
// that outlived its call is ignored (see retryCall). The record goes
// back to the pool before done runs, as rpcReturn does.
func retryResponse(arg any, tag uint64, ev Event) {
	c := arg.(*retryCall)
	if c.id == 0 || tag <= c.id {
		return
	}
	n := tag - c.id - 1
	m, app, iface, done := c.e.m, c.e.app, c.iface, c.done
	c.timer.Cancel()
	m.retries.Put(c)
	if n > 0 {
		m.RetryRecovered++
		if m.k.Tracing() {
			m.k.Trace("soa", "%s call %s recovered on attempt %d", app, iface, n+1)
		}
	}
	if done != nil {
		done(ev)
	}
}

// exhaust settles the call without a response, recycling the record
// before onFail runs.
func (c *retryCall) exhaust() {
	m, app, iface, session, onFail := c.e.m, c.e.app, c.iface, c.retry.session, c.onFail
	m.retries.Put(c)
	m.RetryExhausted++
	if m.k.Tracing() {
		m.k.Trace("soa", "%s call %s session %d exhausted", app, iface, session)
	}
	if onFail != nil {
		onFail()
	}
}

// servedResp is one cached RPC response for duplicate suppression.
type servedResp struct {
	bytes   int
	payload any
}

// servedCap bounds the per-service duplicate-suppression cache. Sessions
// evicted here can in principle be re-executed by a very late retry;
// handlers relying on exactly-once beyond this window must deduplicate
// themselves.
const servedCap = 4096

// servedCache holds the responses of a service's last servedCap served
// sessions, evicting the oldest first. It is an open-addressed table
// (linear probing, Fibonacci hashing, at most half full, session 0
// never used) beside the sessions in insertion order. Once it holds
// servedCap sessions it neither grows nor rebuilds, where a Go map
// under the same steady insert-and-delete load keeps rebuilding its
// tables.
type servedCache struct {
	slots []servedSlot // len a power of two, or nil
	shift uint         // 64 - log2(len(slots))
	order network.FIFO[uint32]
}

type servedSlot struct {
	session uint32
	resp    servedResp
}

// home is session s's preferred slot.
func (c *servedCache) home(s uint32) int {
	return int(uint64(s) * 0x9E3779B97F4A7C15 >> c.shift)
}

// find returns the slot holding session s, or the empty slot ending
// its probe run.
func (c *servedCache) find(s uint32) int {
	mask := len(c.slots) - 1
	i := c.home(s)
	for c.slots[i].session != 0 && c.slots[i].session != s {
		i = (i + 1) & mask
	}
	return i
}

// get returns the cached response of session s.
func (c *servedCache) get(s uint32) (servedResp, bool) {
	if c.slots == nil {
		return servedResp{}, false
	}
	sl := &c.slots[c.find(s)]
	return sl.resp, sl.session == s
}

// add caches the response of session s, which is not cached, evicting
// the oldest session when the cache is full.
func (c *servedCache) add(s uint32, r servedResp) {
	if c.order.Len() == servedCap {
		c.remove(c.order.Pop())
	}
	if 2*(c.order.Len()+1) > len(c.slots) {
		c.grow()
	}
	c.slots[c.find(s)] = servedSlot{s, r}
	c.order.Push(s)
}

// grow doubles the table (16 slots at first) and re-inserts every
// session.
func (c *servedCache) grow() {
	old := c.slots
	c.slots = make([]servedSlot, max(16, 2*len(old)))
	c.shift = uint(64 - bits.TrailingZeros(uint(len(c.slots))))
	for _, sl := range old {
		if sl.session != 0 {
			c.slots[c.find(sl.session)] = sl
		}
	}
}

// remove deletes session s, moving later entries of its probe run back
// into the hole wherever their own probe run passes it, so every
// lookup still finds them.
func (c *servedCache) remove(s uint32) {
	mask := len(c.slots) - 1
	i := c.find(s)
	j := i
	for {
		c.slots[i] = servedSlot{}
		for {
			j = (j + 1) & mask
			if c.slots[j].session == 0 {
				return
			}
			if h := c.home(c.slots[j].session); (j-h)&mask >= (j-i)&mask {
				break
			}
		}
		c.slots[i] = c.slots[j]
		i = j
	}
}
