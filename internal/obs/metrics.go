// Package obs is the deterministic, virtual-time observability layer of
// the platform (DESIGN.md §7). It provides
//
//   - a metrics registry (counters, gauges, histograms) keyed by
//     {layer, ecu, iface} labels, zero-alloc in steady state: instruments
//     are looked up once at wiring time and then updated through pointer
//     receivers with no map access and no allocation, and
//
//   - a span/event tracer (trace.go) that records kernel releases,
//     network frame lifecycles, SOA publish→deliver chains, and
//     mode/fault transitions in virtual time, exportable as Chrome
//     trace_event JSON (chrome.go) and a plain-text dump.
//
// Everything in obs is deterministic: output for a fixed seed is
// byte-identical across runs and across -parallel worker counts, because
// all IDs are ordinals assigned in kernel dispatch order and all dumps
// are sorted by stable keys. obs depends only on internal/sim; the
// instrumented layers depend on obs (never the other way around), and
// every hook they call is nil-checked so the uninstrumented hot path
// keeps PR 1's 0 allocs/op.
package obs

import (
	"io"
	"sort"
	"strconv"

	"dynaplat/internal/sim"
)

// Labels identifies the source of a metric sample. Comparable by value;
// used directly as (part of) a map key so lookups allocate nothing.
type Labels struct {
	Layer string // "sim", "network", "platform", "soa", "faults", "exp"
	ECU   string // station / node name, "" when not applicable
	Iface string // service interface, network name, or app name
}

func (l Labels) String() string { return string(l.append(nil)) }

// append appends l in its String form.
func (l Labels) append(b []byte) []byte {
	b = append(b, "{layer="...)
	b = append(b, l.Layer...)
	b = append(b, ",ecu="...)
	b = append(b, l.ECU...)
	b = append(b, ",iface="...)
	b = append(b, l.Iface...)
	return append(b, '}')
}

// metricKey is the registry map key: name plus labels, comparable.
type metricKey struct {
	name string
	l    Labels
}

// Counter is a monotonically increasing int64. Callers hold the pointer
// returned by Registry.Counter and call Add/Inc on the hot path: no map
// lookup, no allocation.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n (n may be any int64; counters are by convention monotonic).
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a point-in-time int64 value (queue depth, mode ordinal, ...).
type Gauge struct {
	v int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v = v }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v += delta }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// histBuckets are the fixed upper bounds (inclusive) for duration
// histograms, in virtual nanoseconds. The final implicit bucket is +Inf.
var histBuckets = [...]sim.Duration{
	sim.Microsecond,
	10 * sim.Microsecond,
	100 * sim.Microsecond,
	sim.Millisecond,
	10 * sim.Millisecond,
	100 * sim.Millisecond,
	sim.Second,
}

// histLabels are the printable bucket bounds, index-aligned with
// histBuckets plus a trailing "+Inf".
var histLabels = [...]string{
	"1us", "10us", "100us", "1ms", "10ms", "100ms", "1s", "+Inf",
}

// Histogram is a fixed-bucket duration histogram (virtual time). The
// bucket array is embedded, so Observe is allocation-free.
type Histogram struct {
	buckets [len(histBuckets) + 1]int64
	count   int64
	sum     sim.Duration
	max     sim.Duration
}

// Observe records one duration sample.
func (h *Histogram) Observe(d sim.Duration) {
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	for i, ub := range histBuckets {
		if d <= ub {
			h.buckets[i]++
			return
		}
	}
	h.buckets[len(histBuckets)]++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observed durations.
func (h *Histogram) Sum() sim.Duration { return h.sum }

// Max returns the largest observed duration.
func (h *Histogram) Max() sim.Duration { return h.max }

// Mean returns the mean observed duration (0 when empty).
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.count)
}

// Registry is a set of named, labeled instruments. Get-or-create methods
// (Counter/Gauge/Histogram) are meant for wiring time; the returned
// pointers are then used directly on hot paths. A nil *Registry is valid:
// all methods return usable detached instruments, so instrumented code
// can wire unconditionally and still run un-observed.
type Registry struct {
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[metricKey]*Counter{},
		gauges:   map[metricKey]*Gauge{},
		hists:    map[metricKey]*Histogram{},
	}
}

// Counter returns the counter for (name, labels), creating it if needed.
func (r *Registry) Counter(name string, l Labels) *Counter {
	if r == nil {
		return &Counter{}
	}
	k := metricKey{name, l}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for (name, labels), creating it if needed.
func (r *Registry) Gauge(name string, l Labels) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	k := metricKey{name, l}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for (name, labels), creating it if
// needed.
func (r *Registry) Histogram(name string, l Labels) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	k := metricKey{name, l}
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// Same reports whether r and o hold the same series with the same
// values: the same keys in each of the three maps and equal instruments
// (== on Counter, Gauge and Histogram). That is all WriteText reads, so
// it implies byte-identical dumps without rendering them. A nil registry
// equals only a nil registry.
func (r *Registry) Same(o *Registry) bool {
	if r == nil || o == nil {
		return r == o
	}
	return sameSeries(r.counters, o.counters) && sameSeries(r.gauges, o.gauges) &&
		sameSeries(r.hists, o.hists)
}

// sameSeries reports whether a and b have the same keys and equal
// instruments under each.
func sameSeries[V comparable](a, b map[metricKey]*V) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || *v != *w {
			return false
		}
	}
	return true
}

func sortedKeys[V any](m map[metricKey]V) []metricKey {
	keys := make([]metricKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.l.Layer != b.l.Layer {
			return a.l.Layer < b.l.Layer
		}
		if a.l.ECU != b.l.ECU {
			return a.l.ECU < b.l.ECU
		}
		return a.l.Iface < b.l.Iface
	})
	return keys
}

// WriteText dumps every instrument in a deterministic, sorted plain-text
// format:
//
//	counter <name>{layer=...,ecu=...,iface=...} <value>
//	gauge   <name>{...} <value>
//	hist    <name>{...} count=<n> sum=<d> max=<d> mean=<d> le{1us:..,...,+Inf:..}
//
// Output is byte-identical for identical metric contents. Lines are
// appended into one buffer, which is written to w once.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	b := make([]byte, 0, 4<<10)
	for _, k := range sortedKeys(r.counters) {
		b = appendMetricHead(b, "counter ", k)
		b = append(b, ' ')
		b = strconv.AppendInt(b, r.counters[k].v, 10)
		b = append(b, '\n')
	}
	for _, k := range sortedKeys(r.gauges) {
		b = appendMetricHead(b, "gauge ", k)
		b = append(b, ' ')
		b = strconv.AppendInt(b, r.gauges[k].v, 10)
		b = append(b, '\n')
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		b = appendMetricHead(b, "hist ", k)
		b = append(b, " count="...)
		b = strconv.AppendInt(b, h.count, 10)
		b = append(b, " sum="...)
		b = h.sum.Append(b)
		b = append(b, " max="...)
		b = h.max.Append(b)
		b = append(b, " mean="...)
		b = h.Mean().Append(b)
		b = append(b, " le{"...)
		for i, c := range h.buckets {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, histLabels[i]...)
			b = append(b, ':')
			b = strconv.AppendInt(b, c, 10)
		}
		b = append(b, "}\n"...)
	}
	_, err := w.Write(b)
	return err
}

// appendMetricHead appends kind, the metric name and its labels.
func appendMetricHead(b []byte, kind string, k metricKey) []byte {
	b = append(b, kind...)
	b = append(b, k.name...)
	return k.l.append(b)
}
