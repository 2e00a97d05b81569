package flexray

import (
	"fmt"
	"sort"
)

// PlanSlots computes and applies a static-segment slot assignment from
// per-station demand (slots needed per communication cycle). The design-
// time TDMA schedule is exactly what the paper's modeling approach is
// supposed to generate from interface periods (Section 2.2): a station
// publishing an interface every cycle needs one slot, one publishing at
// half the cycle rate can share, and so on.
//
// Slots are assigned interleaved round-robin (not in contiguous blocks)
// so each station's transmit opportunities spread evenly across the
// cycle, minimizing worst-case wait.
func PlanSlots(b *Bus, demand map[string]int) error {
	total := 0
	stations := make([]string, 0, len(demand))
	for s, n := range demand {
		if n < 0 {
			return fmt.Errorf("flexray: negative demand for %s", s)
		}
		if n > 0 {
			stations = append(stations, s)
			total += n
		}
	}
	if total > b.cfg.StaticSlots {
		return fmt.Errorf("flexray: demand %d exceeds %d static slots",
			total, b.cfg.StaticSlots)
	}
	sort.Strings(stations)
	remaining := map[string]int{}
	for _, s := range stations {
		remaining[s] = demand[s]
	}
	slot := 0
	for total > 0 {
		for _, s := range stations {
			if remaining[s] == 0 {
				continue
			}
			b.AssignSlot(slot, s)
			slot++
			remaining[s]--
			total--
		}
	}
	return nil
}

// SlotsOf returns the static slots owned by a station, ascending.
func (b *Bus) SlotsOf(station string) []int {
	var out []int
	for _, s := range b.slots {
		if s != nil && s.owner == station {
			out = append(out, s.idx)
		}
	}
	return out
}

// DemandForPeriod returns how many static slots per cycle a publisher
// with the given message period needs (at least one; more when the
// period is shorter than the cycle).
func (c Config) DemandForPeriod(period int64, cycleNs int64) int {
	if period <= 0 || cycleNs <= 0 {
		return 1
	}
	n := int((cycleNs + period - 1) / period)
	if n < 1 {
		n = 1
	}
	return n
}
