// Package gateway implements a store-and-forward protocol gateway between
// two heterogeneous in-vehicle networks (e.g. a CAN body domain and the
// Ethernet backbone). Today's E/E architectures (the paper's Figure 1)
// interconnect their domain buses exactly this way, and a dynamic
// platform must keep doing so during the migration period.
//
// The gateway attaches to both networks as a station, applies a routing
// table keyed by message ID, re-segments payloads to the target
// technology's MTU, remaps traffic classes, and accounts per-route
// statistics including added latency.
package gateway

import (
	"fmt"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// Route forwards matching messages from one network to another.
type Route struct {
	// FromNet and ToNet name the source and destination networks.
	FromNet, ToNet string
	// ID matches the technology-level message ID on the source network.
	ID uint32
	// RemapID optionally rewrites the ID on the target network
	// (0 keeps the original).
	RemapID uint32
	// RemapClass optionally overrides the traffic class (nil keeps it).
	RemapClass *network.Class
	// Dst optionally overrides the destination station on the target
	// network ("" keeps the original destination).
	Dst string
}

// Config tunes the gateway.
type Config struct {
	Name string
	// ProcDelay is the store-and-forward processing latency per message.
	ProcDelay sim.Duration
	// QueueCap bounds buffered messages per target network; overflow is
	// dropped and counted (0 = 64).
	QueueCap int
}

// Port is one attached network with its MTU.
type Port struct {
	Net network.Network
	MTU int
}

// Gateway bridges two or more networks.
type Gateway struct {
	cfg    Config
	k      *sim.Kernel
	ports  map[string]Port
	routes map[string]map[uint32]Route // fromNet → id → route
	queued map[string]int              // per target net

	// Forwarded and Dropped count routed and overflowed messages.
	Forwarded, Dropped int64
	// AddedLatency samples the gateway's contribution (receipt→resend).
	AddedLatency sim.Stats
}

// New creates a gateway on the kernel.
func New(k *sim.Kernel, cfg Config) *Gateway {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	return &Gateway{
		cfg:    cfg,
		k:      k,
		ports:  map[string]Port{},
		routes: map[string]map[uint32]Route{},
		queued: map[string]int{},
	}
}

// AttachPort connects the gateway to a network with the given MTU. The
// gateway registers itself as station cfg.Name.
func (g *Gateway) AttachPort(net network.Network, mtu int) {
	if mtu <= 0 {
		panic("gateway: MTU must be positive")
	}
	name := net.Name()
	g.ports[name] = Port{Net: net, MTU: mtu}
	net.Attach(g.cfg.Name, func(d network.Delivery) { g.onDelivery(name, d) })
}

// AddRoute installs a forwarding rule. Both networks must be attached.
func (g *Gateway) AddRoute(r Route) error {
	if _, ok := g.ports[r.FromNet]; !ok {
		return fmt.Errorf("gateway: source network %q not attached", r.FromNet)
	}
	if _, ok := g.ports[r.ToNet]; !ok {
		return fmt.Errorf("gateway: target network %q not attached", r.ToNet)
	}
	if r.FromNet == r.ToNet {
		return fmt.Errorf("gateway: route loops on %q", r.FromNet)
	}
	m, ok := g.routes[r.FromNet]
	if !ok {
		m = map[uint32]Route{}
		g.routes[r.FromNet] = m
	}
	if _, dup := m[r.ID]; dup {
		return fmt.Errorf("gateway: duplicate route for id %#x on %s", r.ID, r.FromNet)
	}
	m[r.ID] = r
	return nil
}

func (g *Gateway) onDelivery(fromNet string, d network.Delivery) {
	route, ok := g.routes[fromNet][d.Msg.ID]
	if !ok {
		return // not routed; local traffic
	}
	target := g.ports[route.ToNet]
	if g.queued[route.ToNet] >= g.cfg.QueueCap {
		g.Dropped++
		if g.k.Tracing() {
			g.k.Trace("gateway", "%s: drop id=%#x (queue full towards %s)",
				g.cfg.Name, d.Msg.ID, route.ToNet)
		}
		return
	}
	g.queued[route.ToNet]++
	received := g.k.Now()
	g.k.After(g.cfg.ProcDelay, func() {
		g.queued[route.ToNet]--
		out := d.Msg
		out.Src = g.cfg.Name
		if route.RemapID != 0 {
			out.ID = route.RemapID
		}
		if route.RemapClass != nil {
			out.Class = *route.RemapClass
		}
		if route.Dst != "" {
			out.Dst = route.Dst
		}
		g.AddedLatency.AddDuration(g.k.Now().Sub(received))
		// Re-segment to the target MTU.
		segments := (out.Bytes + target.MTU - 1) / target.MTU
		if segments < 1 {
			segments = 1
		}
		remaining := out.Bytes
		for i := 0; i < segments; i++ {
			seg := out
			seg.Bytes = target.MTU
			if remaining < target.MTU {
				seg.Bytes = remaining
			}
			remaining -= seg.Bytes
			target.Net.Send(seg)
		}
		g.Forwarded++
	})
}
