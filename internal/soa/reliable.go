package soa

import "fmt"

// Reliable subscriptions: the pub/sub half of the resilience layer.
// Publishers number their samples (PublishSeq); subscribers detect
// sequence gaps caused by frame loss, corruption-drops or provider
// outages and — when the provider retains history — re-request the
// missing samples over the wire. Recovered events are delivered late and
// flagged, so consumers distinguish "fresh" from "back-filled" data.

// gapReqBytes is the on-wire size of one re-request control message.
const gapReqBytes = 16

// PublishSeq publishes like Publish but stamps the event with the
// interface's auto-incrementing sequence number (shared with any Stream
// on the same interface is a caller error; use one numbering scheme per
// interface). It returns the sequence used.
func (e *Endpoint) PublishSeq(iface string, bytes int, payload any) uint32 {
	svc, ok := e.m.svcs[iface]
	if !ok {
		panic(fmt.Sprintf("soa: %s publishes unoffered interface %s", e.app, iface))
	}
	if svc.provider != e {
		// Stale provider during an update redirect: publish() drops the
		// sample, so the interface's sequence counter must NOT advance.
		// Burning sequence numbers here made the retained history
		// non-consecutive, which late-joining reliable subscribers then
		// misread as a wire gap (spurious re-requests). The stale
		// publication is still routed through publish() so it is
		// accounted in StalePublishes.
		e.publish(iface, 0, bytes, payload)
		return 0
	}
	seq := svc.pubSeq
	svc.pubSeq++
	e.publish(iface, seq, bytes, payload)
	return seq
}

// ReliableSub tracks one gap-supervised subscription.
type ReliableSub struct {
	ep    *Endpoint
	iface string

	started bool
	expect  uint32

	// Gaps counts discontinuity episodes; Missing the total missing
	// events; Recovered / Unrecoverable their re-request outcomes.
	Gaps          int64
	Missing       int64
	Recovered     int64
	Unrecoverable int64
}

// SubscribeReliable subscribes with sequence-gap detection on top of the
// usual QoS options. Missing events are re-requested over the wire from
// the provider's history (EnableHistory) and delivered late with
// Event.Recovered set; those the history no longer holds, or never held,
// count as unrecoverable. Gap statistics accumulate on the returned
// ReliableSub and on the middleware counters.
func (e *Endpoint) SubscribeReliable(iface string, qos QoS, fn func(Event)) (*ReliableSub, error) {
	rs := &ReliableSub{ep: e, iface: iface}
	if svc, ok := e.m.svcs[iface]; ok {
		// Anchor the expected sequence at subscription time. Historical
		// samples delivered for a late join carry sequences below this
		// anchor and are ignored by gap accounting (they are a courtesy
		// replay, not a wire loss); previously the first history sample
		// initialized the tracker and the jump to live traffic was
		// misflagged as a gap whenever history was non-contiguous with
		// the live stream.
		rs.started = true
		rs.expect = svc.pubSeq
	}
	wrapped := func(ev Event) {
		if ev.Recovered {
			fn(ev)
			return
		}
		rs.observe(ev, fn)
		fn(ev)
	}
	if err := e.SubscribeQoS(iface, qos, wrapped); err != nil {
		return nil, err
	}
	return rs, nil
}

// observe advances the expected sequence and triggers re-requests.
func (rs *ReliableSub) observe(ev Event, fn func(Event)) {
	m := rs.ep.m
	if !rs.started {
		rs.started = true
		rs.expect = ev.Seq + 1
		return
	}
	switch delta := ev.Seq - rs.expect; {
	case delta == 0:
		rs.expect = ev.Seq + 1
	case delta < 1<<31: // forward jump: delta events missing
		rs.Gaps++
		rs.Missing += int64(delta)
		m.SeqGaps++
		if m.k.Tracing() {
			m.k.Trace("soa", "%s gap on %s: missing [%d,%d)", rs.ep.app, rs.iface, rs.expect, ev.Seq)
		}
		rs.reRequest(rs.expect, ev.Seq, fn)
		rs.expect = ev.Seq + 1
	default:
		// Stale or duplicate (seq behind): ignore for gap accounting.
	}
}

// reRequest fetches [from, to) from the provider's history: one control
// message to the provider, then the found events ride back over the same
// interface's network path, delivered with Recovered set.
func (rs *ReliableSub) reRequest(from, to uint32, fn func(Event)) {
	m := rs.ep.m
	svc, ok := m.svcs[rs.iface]
	if !ok {
		return
	}
	want := int64(to - from)
	provider := svc.provider
	m.transfer(svc, rs.ep, provider, HeaderSize+gapReqBytes, func() {
		// Provider-side lookup at request arrival time.
		var found []Event
		for i := 0; i < svc.histLen; i++ {
			if h := svc.retained(i); h.Seq >= from && h.Seq < to {
				found = append(found, h)
			}
		}
		missing := want - int64(len(found))
		if missing > 0 {
			rs.Unrecoverable += missing
			m.GapEventsUnrecoverable += missing
		}
		if len(found) == 0 {
			return
		}
		total := 0
		for _, h := range found {
			total += HeaderSize + h.Bytes
		}
		m.transfer(svc, provider, rs.ep, total, func() {
			now := m.k.Now()
			for _, h := range found {
				ev := h
				ev.Delivered = now
				ev.Recovered = true
				rs.Recovered++
				m.GapEventsRecovered++
				fn(ev)
			}
		})
	})
}
