package vehicle

import (
	"fmt"
	"testing"

	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
)

// TestProbe pins the probe's edges. Every case starts from a probe over
// five 2 ms periods with periods 1 and 3 marked, and renders what it
// observes with fmt.Sprint.
func TestProbe(t *testing.T) {
	const period, periods = 2 * sim.Millisecond, 5
	cases := []struct {
		name string
		run  func(p *Probe) []any
		want string
	}{
		{"index at the last covered period", func(p *Probe) []any {
			idx, ok := p.Index(sim.Time(periods*period - 1))
			return []any{idx, ok}
		}, "[4 true]"},
		{"index one past the last period", func(p *Probe) []any {
			idx, ok := p.Index(sim.Time(periods * period))
			return []any{idx, ok}
		}, "[5 false]"},
		{"mark a negative index", func(p *Probe) []any {
			return []any{p.Mark(-1), p.Hits(0, periods)}
		}, "[false 2]"},
		{"mark index periods", func(p *Probe) []any {
			return []any{p.Mark(periods), p.Hits(0, periods+1)}
		}, "[false 2]"},
		{"repeated mark", func(p *Probe) []any {
			return []any{p.Mark(1), p.Mark(1), p.Hits(0, periods)}
		}, "[true true 2]"},
		{"mark an int event", func(p *Probe) []any {
			return []any{p.MarkEvent(soa.Event{Payload: 2}), p.Hits(2, 3), p.Hits(0, periods)}
		}, "[true 1 3]"},
		{"mark a non-int event", func(p *Probe) []any {
			return []any{p.MarkEvent(soa.Event{Payload: "2"}),
				p.MarkEvent(soa.Event{Payload: int64(2)}), p.MarkEvent(soa.Event{}),
				p.Hits(0, periods)}
		}, "[false false false 2]"},
		{"hits on an empty range", func(p *Probe) []any {
			return []any{p.Hits(1, 1), p.Hits(3, 1)}
		}, "[0 0]"},
		{"hits on a partial window", func(p *Probe) []any {
			return []any{p.Hits(2, 4), p.Hits(-2, 2), p.Hits(3, periods+4)}
		}, "[1 1 1]"},
		{"avail", func(p *Probe) []any {
			return []any{p.Avail(), NewProbe(period, 0).Avail()}
		}, "[0.4 0]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewProbe(period, periods)
			p.Mark(1)
			p.Mark(3)
			if got := fmt.Sprint(c.run(p)); got != c.want {
				t.Errorf("got %s, want %s", got, c.want)
			}
			if p.Periods() != periods {
				t.Errorf("Periods() = %d, want %d", p.Periods(), periods)
			}
		})
	}
}
