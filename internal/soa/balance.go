package soa

// Client-side load balancing over replicated provider instances
// (mesh.go). Selection is deterministic: the candidate list is the
// service's instance slice (sorted by application name at registration),
// filtered by health and breaker state before a policy is applied, so
// the chosen instance is a pure function of mesh state — no goroutines,
// no wall clock, no unordered map iteration.

// BalancePolicy selects the dispatch target among eligible instances.
type BalancePolicy uint8

const (
	// PolicyRoundRobin rotates a per-service cursor over the eligible
	// instances.
	PolicyRoundRobin BalancePolicy = iota
	// PolicyLeastPending picks the instance with the fewest dispatched
	// plus queued calls (ties broken by registration order).
	PolicyLeastPending
	// PolicyZoneLocal prefers instances in the caller's zone (traffic
	// stays off the inter-zone gateway, E18); falls back to round-robin
	// across the remaining zones when the local zone has no eligible
	// instance.
	PolicyZoneLocal
)

func (p BalancePolicy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyLeastPending:
		return "least-pending"
	case PolicyZoneLocal:
		return "zone-local"
	}
	return "?"
}

// load is the balancing pressure of an instance: dispatched calls in
// flight plus calls waiting in its admission queue.
func (i *meshInstance) load() int { return i.active + i.queue.Len() }

// pick applies the mesh's balancing policy to the eligible instances.
// elig is non-empty and preserves registration (sorted-by-app) order.
func (ms *Mesh) pick(svc *meshService, client *Endpoint, elig []*meshInstance) *meshInstance {
	switch ms.cfg.Policy {
	case PolicyLeastPending:
		best := elig[0]
		for _, inst := range elig[1:] {
			if inst.load() < best.load() {
				best = inst
			}
		}
		return best
	case PolicyZoneLocal:
		zone := ms.zones[client.ecu]
		if zone != "" {
			local := ms.local[:0]
			for _, inst := range elig {
				if ms.zones[inst.ep.ECU()] == zone {
					local = append(local, inst)
				}
			}
			ms.local = local
			if len(local) > 0 {
				return ms.roundRobin(svc, local)
			}
		}
		inst := ms.roundRobin(svc, elig)
		if zone != "" && ms.zones[inst.ep.ECU()] != zone {
			svc.crossZone++
		}
		return inst
	default: // PolicyRoundRobin
		return ms.roundRobin(svc, elig)
	}
}

func (ms *Mesh) roundRobin(svc *meshService, elig []*meshInstance) *meshInstance {
	inst := elig[svc.rr%len(elig)]
	svc.rr++
	return inst
}
