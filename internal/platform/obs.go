package platform

import (
	"dynaplat/internal/obs"
)

// Observability wiring for the platform layer (DESIGN.md §7). The
// helpers attach to the existing Node.OnComplete hook, so the
// uninstrumented runtime keeps its hot path untouched; a nil obs plane
// is a no-op.

// ObserveNode records every deterministic-activation completion of n
// into o:
//
//	plat_jobs{layer=platform,ecu,iface=<app>}            counter
//	plat_deadline_misses{layer=platform,ecu,iface=<app>} counter
//	plat_response{layer=platform,ecu,iface=<app>}        histogram (release→finish)
//
// and a Chrome 'X' (complete) slice per activation on track
// "ecu:<name>" named after the app ("!" suffix marks a deadline miss).
func ObserveNode(o *obs.Obs, n *Node) {
	if o == nil || n == nil {
		return
	}
	ecu := n.ecu.Name
	track := "ecu:" + ecu
	jobs := map[string]*obs.Counter{}
	misses := map[string]*obs.Counter{}
	resp := map[string]*obs.Histogram{}
	n.OnComplete(func(c Completion) {
		j, ok := jobs[c.App]
		if !ok {
			l := obs.Labels{Layer: "platform", ECU: ecu, Iface: c.App}
			j = o.M.Counter("plat_jobs", l)
			jobs[c.App] = j
			misses[c.App] = o.M.Counter("plat_deadline_misses", l)
			resp[c.App] = o.M.Histogram("plat_response", l)
		}
		j.Inc()
		resp[c.App].Observe(c.Finished.Sub(c.Release))
		name := c.App
		args := ""
		if c.Missed {
			misses[c.App].Inc()
			name = c.App + "!"
			args = "deadline-miss"
		}
		o.T.Complete("platform", name, track, c.Started, c.Finished.Sub(c.Started), args)
	})
}

// ObservePlatform wires every current node of p into o (see
// ObserveNode). Nodes added later must be wired individually.
func ObservePlatform(o *obs.Obs, p *Platform) {
	if o == nil || p == nil {
		return
	}
	for _, ecu := range p.Nodes() {
		ObserveNode(o, p.Node(ecu))
	}
}
