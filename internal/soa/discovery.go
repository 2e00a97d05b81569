package soa

import (
	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// Timed service discovery in the SOME/IP-SD style: a client broadcasts a
// FindService entry on its networks and the providing ECU answers with an
// OfferService entry. Find/Offer latency is part of the cost of the
// paper's "dynamic bindings of services at runtime" (Section 4.2) — the
// in-process registry answers instantly, but a real vehicle pays the
// wire round trip measured here.

// discoveryID is the reserved technology message ID for SD traffic.
const discoveryID uint32 = 0xFFFE

// sdMsgBytes is the on-wire size of one SD entry.
const sdMsgBytes = 60

type sdFind struct {
	iface   string
	fromECU string
	token   uint64
}

type sdOffer struct {
	iface    string
	provider string
	version  int
	token    uint64
}

// DiscoveryResult reports a completed Discover call.
type DiscoveryResult struct {
	Found    bool
	Provider string
	Version  int
	// RTT is find-to-offer latency (zero for local/timeout results).
	RTT sim.Duration
}

// Discover performs a timed FindService for an interface. A provider on
// the same ECU answers immediately; a remote provider answers over the
// wire; an unknown service reports Found=false after timeout.
func (e *Endpoint) Discover(iface string, timeout sim.Duration, done func(DiscoveryResult)) {
	if timeout <= 0 {
		timeout = 100 * sim.Millisecond
	}
	svc, ok := e.m.svcs[iface]
	if ok && e.m.ECUDown(svc.provider.ecu) {
		// The provider's ECU is silenced by a fault: neither the local
		// registry nor the wire may answer for it — the find times out
		// exactly as it would against a crashed ECU, instead of handing
		// the client a stale listing (the eviction fix).
		e.m.k.After(timeout, func() { done(DiscoveryResult{}) })
		return
	}
	if ok && (svc.provider.ecu == e.ecu || svc.net == nil) {
		// Local provider (or local-only service): registry answer.
		e.m.k.After(LocalDelay, func() {
			done(DiscoveryResult{Found: true, Provider: svc.provider.app, Version: svc.version})
		})
		return
	}
	if !ok || svc.net == nil {
		// Nothing offers it anywhere reachable: timeout.
		e.m.k.After(timeout, func() { done(DiscoveryResult{}) })
		return
	}
	ni := svc.net
	e.attach(ni)
	svc.provider.attach(ni)
	e.m.sdToken++
	token := e.m.sdToken
	start := e.m.k.Now()
	answered := false
	e.m.sdWaiters[token] = func(offer sdOffer) {
		if answered {
			return
		}
		answered = true
		delete(e.m.sdWaiters, token)
		done(DiscoveryResult{
			Found: true, Provider: offer.provider, Version: offer.version,
			RTT: e.m.k.Now().Sub(start),
		})
	}
	e.m.k.After(timeout, func() {
		if answered {
			return
		}
		answered = true
		delete(e.m.sdWaiters, token)
		done(DiscoveryResult{})
	})
	ni.net.Send(network.Message{
		ID: discoveryID, Src: e.ecu, Class: network.ClassPriority,
		Bytes:   sdMsgBytes,
		Payload: sdFind{iface: iface, fromECU: e.ecu, token: token},
	})
}

// handleSD processes discovery traffic at an attached station.
func (m *Middleware) handleSD(station string, d network.Delivery) bool {
	switch p := d.Msg.Payload.(type) {
	case sdFind:
		svc, ok := m.svcs[p.iface]
		if !ok || svc.provider.ecu != station || svc.net == nil {
			return true // not ours to answer
		}
		if m.ECUDown(station) {
			// A find that slipped through while this station's fault was
			// being injected: a down ECU never answers SD.
			return true
		}
		ni := svc.net
		m.k.Trace("soa-sd", "%s answers find(%s) from %s", station, p.iface, p.fromECU)
		ni.net.Send(network.Message{
			ID: discoveryID, Src: station, Dst: p.fromECU, Class: network.ClassPriority,
			Bytes: sdMsgBytes,
			Payload: sdOffer{iface: p.iface, provider: svc.provider.app,
				version: svc.version, token: p.token},
		})
		return true
	case sdOffer:
		if w, ok := m.sdWaiters[p.token]; ok {
			w(p)
		}
		return true
	}
	return false
}
