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
	// (minimum 1; DefaultRetryPolicy uses 4).
	MaxAttempts int
	// Backoff is the delay before the first retry; each further retry
	// multiplies it by Multiplier up to MaxBackoff.
	Backoff sim.Duration
	// MaxBackoff caps the backoff growth (0 = uncapped).
	MaxBackoff sim.Duration
	// Multiplier is the backoff growth factor (default 2).
	Multiplier float64
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

// DefaultRetryPolicy returns 4 attempts, 2 ms initial backoff doubling
// to at most 16 ms, 20% jitter and no overall budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		Backoff:     2 * sim.Millisecond,
		MaxBackoff:  16 * sim.Millisecond,
		Multiplier:  2,
		JitterFrac:  0.2,
	}
}

// normalized fills policy defaults.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Backoff <= 0 {
		p.Backoff = 2 * sim.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.JitterFrac < 0 || p.JitterFrac > 1 {
		p.JitterFrac = 0
	}
	return p
}

// retryLadder is one logical call's climb up its RetryPolicy: failed
// attempts so far, the next backoff and the session's jitter stream.
// CallRetry and the mesh's meshCall both climb it, so jitter, the budget
// check and backoff growth exist once.
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
	next := sim.Duration(float64(l.backoff) * l.pol.Multiplier)
	if l.pol.MaxBackoff > 0 && next > l.pol.MaxBackoff {
		next = l.pol.MaxBackoff
	}
	l.backoff = next
	return wait, ""
}

// CallRetry performs an RPC with a per-attempt timeout and the given
// retry policy. done receives the (first) response; onFail runs when the
// attempts or the budget are exhausted without a response. All attempts
// share one session number, so the provider suppresses duplicate handler
// executions. The synchronous error reports immediate failures of the
// first attempt (unknown service, unauthorized, no handler).
func (e *Endpoint) CallRetry(iface string, reqBytes int, req any,
	perTry sim.Duration, pol RetryPolicy, done func(Event), onFail func()) error {
	if perTry <= 0 {
		return fmt.Errorf("soa: non-positive per-attempt timeout")
	}
	m := e.m
	m.next.session++
	session := m.next.session
	l := pol.ladder(m, session, m.k.Now())
	settled := false
	fail := func() {
		if settled {
			return
		}
		settled = true
		m.RetryExhausted++
		if m.k.Tracing() {
			m.k.Trace("soa", "%s call %s session %d exhausted", e.app, iface, session)
		}
		if onFail != nil {
			onFail()
		}
	}

	var attempt func() error
	attempt = func() error {
		n := l.attempt
		tryTimeout := l.tryTimeout(m.k.Now(), perTry)
		if tryTimeout <= 0 {
			fail()
			return nil
		}
		timer := m.k.After(tryTimeout, func() {
			if settled {
				return
			}
			m.RPCTimeouts++
			// Schedule the next attempt, or give up.
			wait, giveUp := l.next(m.k.Now())
			if giveUp != "" {
				fail()
				return
			}
			m.RetryAttempts++
			m.k.After(wait, func() {
				if settled {
					return
				}
				// Re-resolving the service each attempt lets a retry
				// reach a provider re-offered elsewhere after failover.
				if err := attempt(); err != nil {
					fail()
				}
			})
		})
		return e.call(iface, session, reqBytes, req, plainDone, func(ev Event) {
			if settled {
				return
			}
			settled = true
			timer.Cancel()
			if n > 0 {
				m.RetryRecovered++
				if m.k.Tracing() {
					m.k.Trace("soa", "%s call %s recovered on attempt %d", e.app, iface, n+1)
				}
			}
			if done != nil {
				done(ev)
			}
		}, 0)
	}
	return attempt()
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
