package fuzz

import (
	"encoding/json"

	"dynaplat/internal/faults"
	"dynaplat/internal/sim"
)

// Shrink greedily reduces a failing spec to a smaller one that still
// fails, re-checking candidates with the caller's predicate (normally
// func(s Spec) bool { return Check(s).Failed() }). Reductions are tried
// big-to-small — drop a whole tier before trimming inside one — and the
// first still-failing candidate is adopted, to a fixpoint. Every
// reduction is deterministic, so the shrunk spec is itself a pure
// function of (Version, seed, predicate).
func Shrink(sp Spec, failing func(Spec) bool) Spec {
	cur := sp
	for round := 0; round < 24; round++ {
		reduced := false
		for _, cand := range reductions(cur) {
			if failing(cand) {
				cur = cand
				reduced = true
				break
			}
		}
		if !reduced {
			break
		}
	}
	return cur
}

// reductions proposes strictly smaller variants of s, most aggressive
// first. Each candidate keeps the generator's validity invariants:
// memory is re-sized, dangling migrations are dropped, homes stay on
// live ECUs.
func reductions(s Spec) []Spec {
	var out []Spec
	add := func(f func(*Spec) bool) {
		c := cloneSpec(s)
		if f(&c) {
			sizeMemory(&c)
			out = append(out, c)
		}
	}

	add(func(c *Spec) bool { // drop the update tier
		if c.Update == nil {
			return false
		}
		c.Update = nil
		return true
	})
	add(func(c *Spec) bool { // drop the reconfig tier
		if c.Reconfig == nil {
			return false
		}
		c.Reconfig = nil
		return true
	})
	add(func(c *Spec) bool { // drop the mesh tier
		if c.Mesh == nil {
			return false
		}
		c.Mesh = nil
		return true
	})
	add(func(c *Spec) bool { // drop the fault campaign
		if c.Campaign == nil {
			return false
		}
		c.Campaign = nil
		return true
	})
	add(func(c *Spec) bool { // drop network-level noise only
		if c.Campaign == nil || (c.Campaign.Net == faults.NetConfig{} && c.Campaign.Babble == nil) {
			return false
		}
		c.Campaign.Net, c.Campaign.Babble = faults.NetConfig{}, nil
		return true
	})
	add(func(c *Spec) bool { // drop all migrations
		if len(c.Migrations) == 0 {
			return false
		}
		c.Migrations = nil
		return true
	})
	add(func(c *Spec) bool { // drop the aux bus (and dual-homing)
		if c.Aux == nil {
			return false
		}
		c.Aux = nil
		for i := range c.Pubs {
			c.Pubs[i].AuxIface = ""
		}
		return true
	})
	add(func(c *Spec) bool { // halve the publishers
		if len(c.Pubs) <= 1 {
			return false
		}
		c.Pubs = c.Pubs[:(len(c.Pubs)+1)/2]
		kept := map[string]bool{}
		for _, p := range c.Pubs {
			kept[p.App.Name] = true
		}
		var migs []MigrationSpec
		for _, m := range c.Migrations {
			if kept[m.App] {
				migs = append(migs, m)
			}
		}
		c.Migrations = migs
		return true
	})
	add(func(c *Spec) bool { // halve the mesh services
		if c.Mesh == nil || len(c.Mesh.Services) <= 1 {
			return false
		}
		c.Mesh.Services = c.Mesh.Services[:(len(c.Mesh.Services)+1)/2]
		kept := map[string]bool{}
		for _, svc := range c.Mesh.Services {
			kept[svc.Name] = true
		}
		var streams []StreamSpec
		for _, st := range c.Mesh.Streams {
			if kept[st.Service] {
				streams = append(streams, st)
			}
		}
		c.Mesh.Streams = streams
		return true
	})
	add(func(c *Spec) bool { // halve the call streams
		if c.Mesh == nil || len(c.Mesh.Streams) <= 1 {
			return false
		}
		c.Mesh.Streams = c.Mesh.Streams[:(len(c.Mesh.Streams)+1)/2]
		return true
	})
	add(func(c *Spec) bool { // halve the NDAs
		if c.Reconfig == nil || len(c.Reconfig.NDAs) <= 1 {
			return false
		}
		c.Reconfig.NDAs = c.Reconfig.NDAs[:(len(c.Reconfig.NDAs)+1)/2]
		return true
	})
	add(func(c *Spec) bool { // halve the ECU count (>= 3 stay, each in its zone)
		if len(c.ECUs) <= 3 {
			return false
		}
		m := len(c.ECUs) / 2
		if m < 3 {
			m = 3
		}
		remap := map[string]string{}
		for i, e := range c.ECUs {
			remap[e.Name] = c.ECUs[i%m].Name
		}
		c.ECUs = c.ECUs[:m]
		for i := range c.Pubs {
			c.Pubs[i].Home = remap[c.Pubs[i].Home]
		}
		if c.Mesh != nil {
			for i := range c.Mesh.Services {
				for j := range c.Mesh.Services[i].Homes {
					c.Mesh.Services[i].Homes[j] = remap[c.Mesh.Services[i].Homes[j]]
				}
			}
		}
		if c.Reconfig != nil {
			for i := range c.Reconfig.NDAs {
				c.Reconfig.NDAs[i].Home = remap[c.Reconfig.NDAs[i].Home]
			}
		}
		return true
	})
	add(func(c *Spec) bool { // halve the horizon
		if c.Horizon <= 120*sim.Millisecond {
			return false
		}
		c.Horizon /= 2
		if c.Horizon < 120*sim.Millisecond {
			c.Horizon = 120 * sim.Millisecond
		}
		for i := range c.Migrations {
			if c.Migrations[i].At >= c.Horizon {
				c.Migrations[i].At = 3 * c.Horizon / 4
			}
		}
		return true
	})
	return out
}

// cloneSpec deep-copies via the spec's own JSON form — Spec is pure
// serializable data, so the round-trip is lossless.
func cloneSpec(s Spec) Spec {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	return out
}
