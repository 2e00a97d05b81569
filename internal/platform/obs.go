package platform

import (
	"dynaplat/internal/obs"
)

// Observability for the platform layer (DESIGN.md §7). NewNode attaches
// observeNode to the existing Node.OnComplete hook when its kernel is
// observed, so the uninstrumented runtime keeps its hot path untouched.

// appObs is one app's instruments on a node and the trace IDs of its
// completion slices' names: the app's name, and name+"!" for a deadline
// miss.
type appObs struct {
	jobs, misses *obs.Counter
	resp         *obs.Histogram
	name, missed obs.Ref
}

// observeNode records every deterministic-activation completion of n
// into o:
//
//	plat_jobs{layer=platform,ecu,iface=<app>}            counter
//	plat_deadline_misses{layer=platform,ecu,iface=<app>} counter
//	plat_response{layer=platform,ecu,iface=<app>}        histogram (release→finish)
//
// and a Chrome 'X' (complete) slice per activation on track
// "ecu:<name>" named after the app ("!" suffix marks a deadline miss).
// An app's instruments and names are resolved on its first completion.
func observeNode(o *obs.Obs, n *Node) {
	ecu := n.ecu.Name
	t := o.T
	cat, track, miss := t.Resolve("platform"), t.Resolve("ecu:"+ecu), t.Resolve("deadline-miss")
	apps := map[string]*appObs{}
	n.OnComplete(func(c Completion) {
		a, ok := apps[c.App]
		if !ok {
			l := obs.Labels{Layer: "platform", ECU: ecu, Iface: c.App}
			a = &appObs{
				jobs:   o.M.Counter("plat_jobs", l),
				misses: o.M.Counter("plat_deadline_misses", l),
				resp:   o.M.Histogram("plat_response", l),
				name:   t.Resolve(c.App),
				missed: t.Resolve(c.App + "!"),
			}
			apps[c.App] = a
		}
		a.jobs.Inc()
		a.resp.Observe(c.Finished.Sub(c.Release))
		name, args := a.name, obs.Ref(0)
		if c.Missed {
			a.misses.Inc()
			name, args = a.missed, miss
		}
		t.CompleteRef(cat, name, track, c.Started, c.Finished.Sub(c.Started), args)
	})
}
