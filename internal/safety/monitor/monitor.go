// Package monitor implements the paper's Section 3.4 runtime monitoring:
// it watches the key parameters of deterministic applications — period,
// deadline, jitter, memory usage — detects violations, records the
// conditions leading to them, and (when an uplink is available) transfers
// fault reports to the manufacturer backend. The collected data sets also
// support safety certification.
package monitor

import (
	"fmt"

	"dynaplat/internal/platform"
	"dynaplat/internal/sim"
)

// Config tunes the monitor.
type Config struct {
	// PeriodTolerance is the allowed deviation of release spacing from
	// the nominal period before a period fault is raised.
	PeriodTolerance sim.Duration
	// JitterWindow is how many recent activations the jitter check spans.
	JitterWindow int
	// MemoryPollPeriod is the memory-usage sampling interval.
	MemoryPollPeriod sim.Duration
	// MemoryWarnFraction raises a fault when a domain exceeds this
	// fraction of its budget.
	MemoryWarnFraction float64
	// PerEventCost is the accounted CPU cost of monitoring one
	// activation (reported as overhead, experiment E8).
	PerEventCost sim.Duration
}

// DefaultConfig returns the standard monitor tuning.
func DefaultConfig() Config {
	return Config{
		PeriodTolerance:    500 * sim.Microsecond,
		JitterWindow:       32,
		MemoryPollPeriod:   50 * sim.Millisecond,
		MemoryWarnFraction: 0.9,
		PerEventCost:       2 * sim.Microsecond,
	}
}

// Detection records one detected violation.
type Detection struct {
	App  string
	Kind platform.FaultKind
	// OccurredAt is when the violating behaviour happened; DetectedAt is
	// when the monitor saw it. Their difference is the detection latency.
	OccurredAt sim.Time
	DetectedAt sim.Time
	Detail     string
}

// Latency returns occurrence→detection latency.
func (d Detection) Latency() sim.Duration { return d.DetectedAt.Sub(d.OccurredAt) }

// Monitor watches one node.
type Monitor struct {
	k    *sim.Kernel
	node *platform.Node
	cfg  Config

	perApp map[string]*appWatch

	// Detections lists everything the monitor caught.
	Detections []Detection
	// EventsSeen counts monitored activations; AccountedCost aggregates
	// the monitor's own CPU cost.
	EventsSeen    int64
	AccountedCost sim.Duration

	memTicker *sim.Ticker
	uplink    func(Detection)
}

type appWatch struct {
	lastRelease sim.Time
	haveRelease bool
	responses   []sim.Duration // ring of recent response times
	jitterBound sim.Duration
	period      sim.Duration
}

// New attaches a monitor to a node. Watch must be called per app.
func New(node *platform.Node, cfg Config) *Monitor {
	m := &Monitor{
		k:      nodeKernel(node),
		node:   node,
		cfg:    cfg,
		perApp: map[string]*appWatch{},
	}
	node.OnComplete(m.onComplete)
	if cfg.MemoryPollPeriod > 0 {
		m.memTicker = m.k.Every(m.k.Now().Add(cfg.MemoryPollPeriod), cfg.MemoryPollPeriod, m.pollMemory)
	}
	return m
}

// nodeKernel extracts the kernel via a completion-independent path.
func nodeKernel(node *platform.Node) *sim.Kernel { return node.Kernel() }

// SetUplink installs the backend forwarder (Section 3.4: fault conditions
// transferred to the manufacturer when a connection is available).
func (m *Monitor) SetUplink(fn func(Detection)) { m.uplink = fn }

// Watch starts monitoring an installed app's deterministic parameters.
func (m *Monitor) Watch(app string) error {
	inst := m.node.App(app)
	if inst == nil {
		return fmt.Errorf("monitor: app %s not installed on %s", app, m.node.ECU().Name)
	}
	m.perApp[app] = &appWatch{
		jitterBound: inst.Spec.Jitter,
		period:      inst.Spec.Period,
	}
	return nil
}

// Unwatch stops monitoring an app.
func (m *Monitor) Unwatch(app string) { delete(m.perApp, app) }

// Stop halts the memory poller.
func (m *Monitor) Stop() {
	if m.memTicker != nil {
		m.memTicker.Stop()
	}
}

func (m *Monitor) onComplete(c platform.Completion) {
	w, ok := m.perApp[c.App]
	if !ok {
		return
	}
	m.EventsSeen++
	m.AccountedCost += m.cfg.PerEventCost

	// Deadline check: the platform already flags the miss; the monitor
	// records and uplinks it.
	if c.Missed {
		m.detect(Detection{
			App: c.App, Kind: platform.FaultDeadlineMiss,
			OccurredAt: c.Deadline, DetectedAt: m.k.Now(),
			Detail: fmt.Sprintf("job %d finished %v late", c.Job, c.Finished.Sub(c.Deadline)),
		})
	}

	// Period conformance: release spacing must equal the nominal period
	// within tolerance.
	if w.haveRelease && w.period > 0 {
		gap := c.Release.Sub(w.lastRelease)
		dev := gap - w.period
		if dev < 0 {
			dev = -dev
		}
		if dev > m.cfg.PeriodTolerance {
			m.detect(Detection{
				App: c.App, Kind: platform.FaultJitterExceeded,
				OccurredAt: c.Release, DetectedAt: m.k.Now(),
				Detail: fmt.Sprintf("release spacing %v deviates %v from period %v", gap, dev, w.period),
			})
		}
	}
	w.lastRelease = c.Release
	w.haveRelease = true

	// Response jitter over the recent window.
	w.responses = append(w.responses, c.Finished.Sub(c.Release))
	if len(w.responses) > m.cfg.JitterWindow {
		w.responses = w.responses[1:]
	}
	if w.jitterBound > 0 && len(w.responses) >= 2 {
		lo, hi := w.responses[0], w.responses[0]
		for _, r := range w.responses[1:] {
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		if hi-lo > w.jitterBound {
			m.detect(Detection{
				App: c.App, Kind: platform.FaultJitterExceeded,
				OccurredAt: c.Finished, DetectedAt: m.k.Now(),
				Detail: fmt.Sprintf("response jitter %v exceeds bound %v", hi-lo, w.jitterBound),
			})
		}
	}
}

func (m *Monitor) pollMemory() {
	for app := range m.perApp {
		d := m.node.Memory().Domain(app)
		if d == nil || d.BudgetKB == 0 {
			continue
		}
		frac := float64(d.UsedKB) / float64(d.BudgetKB)
		if frac >= m.cfg.MemoryWarnFraction {
			m.detect(Detection{
				App: app, Kind: platform.FaultMemoryBudget,
				OccurredAt: m.k.Now(), DetectedAt: m.k.Now(),
				Detail: fmt.Sprintf("memory %d/%dKB (%.0f%%)", d.UsedKB, d.BudgetKB, frac*100),
			})
		}
	}
}

func (m *Monitor) detect(d Detection) {
	m.Detections = append(m.Detections, d)
	m.node.Diag().RecordFault(platform.Fault{
		App: d.App, Kind: d.Kind, At: d.DetectedAt, Detail: d.Detail,
	})
	if m.uplink != nil {
		m.uplink(d)
	}
}

// DetectionsOf filters detections by app.
func (m *Monitor) DetectionsOf(app string) []Detection {
	var out []Detection
	for _, d := range m.Detections {
		if d.App == app {
			out = append(out, d)
		}
	}
	return out
}

// OverheadFraction reports accounted monitor cost as a fraction of the
// elapsed virtual time.
func (m *Monitor) OverheadFraction() float64 {
	if m.k.Now() == 0 {
		return 0
	}
	return float64(m.AccountedCost) / float64(m.k.Now())
}

// CertificationRecord aggregates monitored evidence for an app: the data
// set the paper says "efficiently supports the safety certification
// processes".
type CertificationRecord struct {
	App         string
	Activations int64
	Misses      int64
	MaxResponse sim.Duration
	Detections  int
}

// Certify produces the certification record for a watched app.
func (m *Monitor) Certify(app string) (CertificationRecord, error) {
	inst := m.node.App(app)
	if inst == nil {
		return CertificationRecord{}, fmt.Errorf("monitor: app %s not installed", app)
	}
	return CertificationRecord{
		App:         app,
		Activations: inst.Activations,
		Misses:      inst.Misses,
		MaxResponse: inst.Response.MaxDuration(),
		Detections:  len(m.DetectionsOf(app)),
	}, nil
}
