package soa

import (
	"testing"

	"dynaplat/internal/sim"
)

// TestServedCacheMatchesMap drives the duplicate-suppression cache
// through long random runs of inserts and lookups against the map and
// insertion-order slice it replaced: the same sessions must be cached,
// with the same responses, after every step. Sessions are drawn either
// as a rising counter with gaps (the middleware's own numbering) or
// from a narrow random range that forces long probe runs and
// wrap-around, so removal's back-shifting is exercised at every table
// size the cache grows through.
func TestServedCacheMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRNG(seed)
		var c servedCache
		ref := map[uint32]servedResp{}
		var order []uint32
		next := uint32(1)
		for step := 0; step < 3*servedCap; step++ {
			var s uint32
			if seed%2 == 1 {
				next += uint32(1 + rng.Intn(3))
				s = next
			} else {
				s = uint32(1 + rng.Intn(4*servedCap))
			}
			got, ok := c.get(s)
			want, wantOK := ref[s]
			if ok != wantOK || got != want {
				t.Fatalf("seed %d step %d: get(%d) = %v,%v, want %v,%v", seed, step, s, got, ok, want, wantOK)
			}
			if ok {
				continue
			}
			r := servedResp{bytes: step, payload: s}
			c.add(s, r)
			ref[s] = r
			order = append(order, s)
			if len(order) > servedCap {
				delete(ref, order[0])
				order = order[1:]
			}
			if step%509 == 0 {
				for _, o := range order {
					if got, ok := c.get(o); !ok || got != ref[o] {
						t.Fatalf("seed %d step %d: cached session %d lost (%v,%v)", seed, step, o, got, ok)
					}
				}
				live := 0
				for _, sl := range c.slots {
					if sl.session != 0 {
						live++
					}
				}
				if live != len(order) {
					t.Fatalf("seed %d step %d: %d occupied slots, want %d", seed, step, live, len(order))
				}
			}
		}
		if len(c.slots) != 2*servedCap {
			t.Errorf("seed %d: full cache has %d slots, want %d", seed, len(c.slots), 2*servedCap)
		}
	}
}
