package vehicle

import (
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
)

// Probe is the availability measurement of one deterministic function
// (DESIGN.md §2): the function publishes the index of the period it runs
// in, a sink marks every index that arrives, and availability is the
// marked share of the covered periods. E21, E22, the fleet and the
// fuzzer all measure availability through it.
type Probe struct {
	period sim.Duration
	marks  []bool
}

// NewProbe covers periods periods of length period, starting at time 0.
func NewProbe(period sim.Duration, periods int) *Probe {
	return &Probe{period: period, marks: make([]bool, periods)}
}

// Periods returns the number of covered periods.
func (p *Probe) Periods() int { return len(p.marks) }

// Index returns the index of the period now falls in and whether the
// probe covers it.
func (p *Probe) Index(now sim.Time) (int, bool) {
	idx := int(int64(now) / int64(p.period))
	return idx, idx >= 0 && idx < len(p.marks)
}

// Mark records that period idx delivered and reports whether the probe
// covers idx. Marking a period twice is not an error.
func (p *Probe) Mark(idx int) bool {
	if idx < 0 || idx >= len(p.marks) {
		return false
	}
	p.marks[idx] = true
	return true
}

// MarkEvent marks the period whose index ev carries as an int payload.
// It reports whether the payload is such an index and the probe covers it.
func (p *Probe) MarkEvent(ev soa.Event) bool {
	idx, ok := ev.Payload.(int)
	return ok && p.Mark(idx)
}

// Hits counts the marked periods in [lo, hi), clipped to the covered
// periods.
func (p *Probe) Hits(lo, hi int) int {
	n := 0
	for i := max(lo, 0); i < min(hi, len(p.marks)); i++ {
		if p.marks[i] {
			n++
		}
	}
	return n
}

// Avail returns the marked share of all covered periods (0 if none).
func (p *Probe) Avail() float64 {
	if len(p.marks) == 0 {
		return 0
	}
	return float64(p.Hits(0, len(p.marks))) / float64(len(p.marks))
}
