package soa

import (
	"fmt"

	"dynaplat/internal/obs"
	"dynaplat/internal/sim"
)

// QoS carries the DDS-inspired per-subscription qualities of service the
// paper's Section 2.1 alludes to ("Data Distribution Service … among many
// others"). Two policies matter for automotive services and are
// implemented here:
//
//   - History: a late-joining subscriber immediately receives the last
//     value(s) published, instead of waiting for the next period — vital
//     for state-like topics (gear position, door state).
//   - Deadline: the middleware supervises the inter-delivery gap and
//     counts violations, feeding the §3.4 monitoring story at the
//     communication layer.
type QoS struct {
	// History requests the last n published samples on subscription
	// (0 = none).
	History int
	// Deadline is the maximum tolerated gap between deliveries
	// (0 = unsupervised).
	Deadline sim.Duration
	// OnDeadlineMiss, when non-nil, is invoked (in virtual time) for
	// each supervised gap violation.
	OnDeadlineMiss func(iface string, gap sim.Duration)
}

// historyCap is the maximum retained history per interface.
const historyCap = 16

// EnableHistory makes an offered interface retain its last depth
// publications for late joiners. Must be called by the provider.
func (e *Endpoint) EnableHistory(iface string, depth int) error {
	svc, ok := e.m.svcs[iface]
	if !ok || svc.provider != e {
		return fmt.Errorf("soa: %s does not offer %s", e.app, iface)
	}
	if depth < 1 || depth > historyCap {
		return fmt.Errorf("soa: history depth %d outside [1,%d]", depth, historyCap)
	}
	svc.historyDepth = depth
	if svc.history == nil {
		svc.history = make([]Event, historyCap)
	}
	return nil
}

// retained returns the i-th oldest retained publication of the service
// (0 <= i < histLen).
func (s *service) retained(i int) Event {
	return s.history[(s.histNext-s.histLen+i+historyCap)%historyCap]
}

// SubscribeQoS subscribes with qualities of service. History samples (if
// enabled on the interface and requested) are delivered immediately after
// the local IPC delay; a deadline, if set, is supervised until
// Unsubscribe.
func (e *Endpoint) SubscribeQoS(iface string, qos QoS, fn func(Event)) error {
	svc, ok := e.m.svcs[iface]
	if !ok {
		return &ErrNoService{Iface: iface}
	}
	sub := &subscription{ep: e}
	wrapped := fn
	if qos.Deadline > 0 {
		sub.deadline = qos.Deadline
		sub.lastRx = e.m.k.Now()
		wrapped = func(ev Event) {
			sub.lastRx = e.m.k.Now()
			fn(ev)
		}
	}
	sub.fn = wrapped
	if err := e.subscribeExisting(iface, sub); err != nil {
		return err
	}
	// Supervision starts only after the binding is authorized and
	// installed — arming it earlier leaked a timer when authorization
	// failed.
	if qos.Deadline > 0 {
		e.superviseDeadline(iface, sub, qos)
	}
	// Late-join history delivery.
	if qos.History > 0 && svc.historyDepth > 0 {
		n := min(qos.History, svc.histLen)
		for i := svc.histLen - n; i < svc.histLen; i++ {
			ev := svc.retained(i)
			e.m.k.After(LocalDelay, func() {
				if sub.gone {
					e.m.DeadLetters++
					return
				}
				ev.Delivered = e.m.k.Now()
				wrapped(ev)
			})
		}
	}
	return nil
}

// subscribeExisting authorizes and installs a pre-built subscription.
func (e *Endpoint) subscribeExisting(iface string, sub *subscription) error {
	svc := e.m.svcs[iface]
	if !e.m.auth.Authorize(e.app, iface) {
		e.m.DeniedBindings++
		return &ErrUnauthorized{Client: e.app, Iface: iface}
	}
	svc.subs = append(svc.subs, sub)
	return nil
}

// superviseDeadline arms the periodic gap check for one subscription.
// The armed timer is held in sub.superRef so Unsubscribe/RemoveEndpoint
// can cancel it: previously the final pending timer outlived the
// subscription (a leaked kernel event that fired once into a dead
// check), so Kernel.Stats().QueueLive never returned to baseline.
func (e *Endpoint) superviseDeadline(iface string, sub *subscription, qos QoS) {
	var tick func()
	tick = func() {
		// Belt and braces: dropped subscriptions cancel superRef, but a
		// concurrently-fired timer must still see the tombstone.
		if sub.gone {
			return
		}
		svc, ok := e.m.svcs[iface]
		if !ok {
			return
		}
		alive := false
		for _, s := range svc.subs {
			if s == sub {
				alive = true
				break
			}
		}
		if !alive {
			return
		}
		gap := e.m.k.Now().Sub(sub.lastRx)
		if gap > sub.deadline {
			sub.deadlineMisses++
			e.m.QoSDeadlineMisses++
			if e.m.o != nil {
				e.m.o.M.Counter("soa_deadline_misses",
					obs.Labels{Layer: "soa", ECU: e.ecu, Iface: iface}).Inc()
				e.m.o.T.Instant("soa", "deadline-miss", "soa:"+iface, e.app)
			}
			if qos.OnDeadlineMiss != nil {
				qos.OnDeadlineMiss(iface, gap)
			}
			sub.lastRx = e.m.k.Now() // re-arm, one miss per gap
		}
		sub.superRef = e.m.k.After(sub.deadline, tick)
	}
	sub.superRef = e.m.k.After(sub.deadline, tick)
}
