package platform

import (
	"dynaplat/internal/obs"
)

// Observability for the platform layer (DESIGN.md §7). NewNode attaches
// observeNode to the existing Node.OnComplete hook when its kernel is
// observed, so the uninstrumented runtime keeps its hot path untouched.

// observeNode records every deterministic-activation completion of n
// into o:
//
//	plat_jobs{layer=platform,ecu,iface=<app>}            counter
//	plat_deadline_misses{layer=platform,ecu,iface=<app>} counter
//	plat_response{layer=platform,ecu,iface=<app>}        histogram (release→finish)
//
// and a Chrome 'X' (complete) slice per activation on track
// "ecu:<name>" named after the app ("!" suffix marks a deadline miss).
func observeNode(o *obs.Obs, n *Node) {
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
