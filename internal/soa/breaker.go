package soa

import (
	"dynaplat/internal/sim"
)

// Circuit breakers guard every client→instance edge of the service mesh
// (mesh.go). A crashed, hung or partitioned provider instance surfaces
// to its callers as per-attempt timeouts; without a breaker each caller
// keeps burning full timeout windows on the dead edge. The breaker
// watches a sliding window of attempt outcomes, opens the edge when the
// failure rate crosses the configured threshold, and probes it again
// after a virtual-time cool-down — so retries route around the dead
// instance instead of queueing behind it, and recovered instances are
// re-admitted by a single successful probe rather than by luck.
//
// Everything is kernel-resident and deterministic: state transitions
// happen on attempt outcomes and on one sim timer (open→half-open),
// whose EventRef is kept on the breaker for the droppedref lifecycle
// contract (DESIGN.md §8).

// BreakerState is the circuit-breaker state machine position.
type BreakerState uint8

const (
	// BreakerClosed passes calls and records their outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects the edge until the reopen timer fires.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe call; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "?"
}

// BreakerConfig tunes the per-edge circuit breakers of a mesh.
type BreakerConfig struct {
	// Window is the sliding outcome window length (attempts).
	Window int
	// MinSamples is the minimum number of recorded outcomes before the
	// failure rate is considered meaningful.
	MinSamples int
	// FailureRate opens the breaker when failures/window reaches it.
	FailureRate float64
	// OpenFor is the open→half-open cool-down in virtual time.
	OpenFor sim.Duration
}

// DefaultBreakerConfig returns an 8-attempt window, 4 minimum samples,
// a 50% trip threshold and a 40 ms cool-down.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{Window: 8, MinSamples: 4, FailureRate: 0.5, OpenFor: 40 * sim.Millisecond}
}

func (c BreakerConfig) normalized() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.FailureRate <= 0 || c.FailureRate > 1 {
		c.FailureRate = 0.5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 40 * sim.Millisecond
	}
	return c
}

// Breaker is the circuit breaker of one client→instance edge. Created
// lazily by the mesh on first dispatch over the edge; survives provider
// migration because the edge is keyed by application identity, not ECU
// (an instance that moves home keeps its breaker window and state).
type Breaker struct {
	ms   *Mesh
	inst *meshInstance
	// client is the calling application (edge identity with inst).
	client string

	cfg   BreakerConfig
	state BreakerState

	// ring is the sliding outcome window (true = failure).
	ring  []bool
	ringN int // outcomes recorded (saturates at len(ring))
	ringI int // next write position
	fails int // failures currently in the window

	// probing marks the single admitted half-open probe in flight.
	probing bool
	trips   int64

	// reopenRef is the armed open→half-open transition timer. The
	// handler is a durable method value, so the ref is kept here —
	// the droppedref contract (DESIGN.md §8) — and canceled if the
	// mesh tears the edge down.
	reopenRef sim.EventRef
}

func newBreaker(ms *Mesh, client string, inst *meshInstance, cfg BreakerConfig) *Breaker {
	return &Breaker{
		ms: ms, inst: inst, client: client,
		cfg:  cfg.normalized(),
		ring: make([]bool, cfg.normalized().Window),
	}
}

// State returns the current state machine position.
func (b *Breaker) State() BreakerState { return b.state }

// Trips counts closed→open (and half-open→open) transitions.
func (b *Breaker) Trips() int64 { return b.trips }

// Window returns the recorded outcome count and the failures among them.
func (b *Breaker) Window() (samples, failures int) { return b.ringN, b.fails }

// blocks reports whether the edge admits no call now: open, or
// half-open with its one probe already in flight.
func (b *Breaker) blocks() bool {
	return b.state == BreakerOpen || (b.state == BreakerHalfOpen && b.probing)
}

// push records one outcome into the sliding window.
func (b *Breaker) push(failure bool) {
	if b.ringN == len(b.ring) {
		if b.ring[b.ringI] {
			b.fails--
		}
	} else {
		b.ringN++
	}
	b.ring[b.ringI] = failure
	if failure {
		b.fails++
	}
	b.ringI = (b.ringI + 1) % len(b.ring)
}

// resetWindow clears the outcome window (on close).
func (b *Breaker) resetWindow() {
	for i := range b.ring {
		b.ring[i] = false
	}
	b.ringN, b.ringI, b.fails = 0, 0, 0
}

// success records a completed attempt over the edge.
func (b *Breaker) success(probe bool) {
	switch b.state {
	case BreakerClosed:
		b.push(false)
	case BreakerHalfOpen:
		if probe {
			// The probe came back: the instance is reachable again.
			b.close()
		}
	case BreakerOpen:
		// A straggler response from before the trip: the timer decides.
	}
}

// failure records a failed attempt (per-try timeout or synchronous
// dispatch error) over the edge.
func (b *Breaker) failure(probe bool) {
	switch b.state {
	case BreakerClosed:
		b.push(true)
		if b.ringN >= b.cfg.MinSamples &&
			float64(b.fails) >= b.cfg.FailureRate*float64(b.ringN) {
			b.trip()
		}
	case BreakerHalfOpen:
		if probe {
			// The probe died too: back to open for another cool-down.
			b.trip()
		}
	case BreakerOpen:
		// Stragglers from pre-trip dispatches change nothing.
	}
}

// trip opens the edge and arms the half-open transition timer.
func (b *Breaker) trip() {
	from := b.state
	b.state = BreakerOpen
	b.probing = false
	b.trips++
	if b.reopenRef.Pending() {
		b.reopenRef.Cancel()
	}
	b.reopenRef = b.ms.k.After(b.cfg.OpenFor, b.halfOpen)
	b.ms.onBreakerTrip(b, from)
}

// halfOpen is the reopen-timer handler: admit one probe.
func (b *Breaker) halfOpen() {
	if b.state != BreakerOpen {
		return
	}
	b.state = BreakerHalfOpen
	b.probing = false
	b.ms.k.Trace("mesh", "breaker %s->%s half-open", b.client, b.inst.app)
}

// close re-closes the edge after a successful probe.
func (b *Breaker) close() {
	b.state = BreakerClosed
	b.probing = false
	b.resetWindow()
	if b.reopenRef.Pending() {
		b.reopenRef.Cancel()
	}
	b.ms.k.Trace("mesh", "breaker %s->%s closed", b.client, b.inst.app)
}
