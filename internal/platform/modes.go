package platform

import (
	"fmt"

	"dynaplat/internal/model"
	"dynaplat/internal/sim"
)

// ModeManager implements degradation-mode management: Section 3.3 notes
// that an autonomous vehicle's safe state "might not necessarily be the
// shutdown of the vehicle" — instead the platform sheds low-criticality
// load and keeps safety functions operating (limp-home). Modes are
// ordered policies; escalating to a stricter mode stops every
// application below the mode's minimum ASIL, freeing CPU, memory and
// bandwidth for what must keep running.

// ModePolicy defines one operating mode.
type ModePolicy struct {
	// Name identifies the mode ("normal", "degraded", "limp-home").
	Name string
	// MinASIL is the lowest criticality allowed to run in this mode.
	MinASIL model.ASIL
}

// DefaultModes returns the canonical three-stage policy set.
func DefaultModes() []ModePolicy {
	return []ModePolicy{
		{Name: "normal", MinASIL: model.QM},
		{Name: "degraded", MinASIL: model.ASILB},
		{Name: "limp-home", MinASIL: model.ASILD},
	}
}

// ModeTransition records one mode change.
type ModeTransition struct {
	At       sim.Time
	From, To string
	// Stopped and Resumed list affected applications.
	Stopped []string
	Resumed []string
	Reason  string
}

// ModeManager supervises the platform's operating mode.
type ModeManager struct {
	p        *Platform
	policies []ModePolicy
	current  int

	// Transitions logs every mode change.
	Transitions []ModeTransition
	// OnTransition, when non-nil, is invoked after every mode change
	// (observability hook; see obs.go).
	OnTransition func(ModeTransition)

	// FaultEscalation, when > 0, escalates one mode automatically after
	// that many faults of kind EscalateOn have been observed since the
	// last transition.
	FaultEscalation int
	// EscalateOn selects the fault kind that drives auto-escalation.
	EscalateOn FaultKind

	faultsSeen int

	// Degradation cascade (EnableCascade): sliding-window rules that
	// escalate full → degraded → limp-home, plus automatic relaxation
	// after a quiet period.
	cascade       []cascadeState
	relaxAfter    sim.Duration
	relaxRef      sim.EventRef
	lastQualified sim.Time
}

// CascadeRule escalates one mode when Count faults of Kind arrive
// within a sliding Window.
type CascadeRule struct {
	Kind   FaultKind
	Count  int
	Window sim.Duration
}

// cascadeState tracks one rule's recent fault times.
type cascadeState struct {
	rule  CascadeRule
	times []sim.Time
}

// NewModeManager creates a manager starting in the first (least strict)
// policy. It panics on an empty or unordered policy list.
func NewModeManager(p *Platform, policies []ModePolicy) *ModeManager {
	if len(policies) == 0 {
		panic("platform: no mode policies")
	}
	for i := 1; i < len(policies); i++ {
		if policies[i].MinASIL < policies[i-1].MinASIL {
			panic("platform: mode policies must be ordered by rising MinASIL")
		}
	}
	m := &ModeManager{p: p, policies: policies, EscalateOn: FaultDeadlineMiss}
	// Watch every node's diagnosis stream for auto-escalation.
	for _, ecu := range p.order {
		node := p.nodes[ecu]
		prev := node.Diag().uplink
		node.Diag().SetUplink(func(f Fault) {
			if prev != nil {
				prev(f)
			}
			m.onFault(f)
		})
	}
	return m
}

// Current returns the active mode name.
func (m *ModeManager) Current() string { return m.policies[m.current].Name }

// EnableCascade installs the degradation cascade: each rule escalates
// one mode when its fault count is reached within its sliding window,
// chaining full → degraded → limp-home as faults keep arriving. After
// relaxAfter of virtual time without any qualifying fault the manager
// relaxes one mode at a time back toward the base mode (0 disables
// auto-relaxation). Rules with non-positive Count or Window panic.
func (m *ModeManager) EnableCascade(rules []CascadeRule, relaxAfter sim.Duration) {
	if len(rules) == 0 {
		panic("platform: empty cascade rule set")
	}
	for _, r := range rules {
		if r.Count <= 0 || r.Window <= 0 {
			panic(fmt.Sprintf("platform: invalid cascade rule %+v", r))
		}
	}
	m.cascade = m.cascade[:0]
	for _, r := range rules {
		m.cascade = append(m.cascade, cascadeState{rule: r})
	}
	m.relaxAfter = relaxAfter
}

// onFault counts qualifying faults and escalates at the threshold.
func (m *ModeManager) onFault(f Fault) {
	if m.FaultEscalation > 0 && f.Kind == m.EscalateOn {
		m.faultsSeen++
		if m.faultsSeen >= m.FaultEscalation {
			m.Escalate(fmt.Sprintf("auto: %d %v faults", m.faultsSeen, m.EscalateOn))
		}
	}
	m.onCascadeFault(f)
}

// onCascadeFault feeds the sliding-window rules.
func (m *ModeManager) onCascadeFault(f Fault) {
	now := m.p.Kernel().Now()
	qualified := false
	for i := range m.cascade {
		cs := &m.cascade[i]
		if f.Kind != cs.rule.Kind {
			continue
		}
		qualified = true
		cs.times = append(cs.times, now)
		// Prune entries outside the window.
		cut := 0
		for cut < len(cs.times) && now.Sub(cs.times[cut]) > cs.rule.Window {
			cut++
		}
		cs.times = cs.times[cut:]
		if len(cs.times) >= cs.rule.Count {
			m.Escalate(fmt.Sprintf("cascade: %d %v faults in %v", len(cs.times), cs.rule.Kind, cs.rule.Window))
			cs.times = cs.times[:0]
		}
	}
	if qualified {
		m.lastQualified = now
		m.armRelax()
	}
}

// armRelax (re)schedules the quiet-period check.
func (m *ModeManager) armRelax() {
	if m.relaxAfter <= 0 {
		return
	}
	m.relaxRef.Cancel()
	var tick func()
	tick = func() {
		if m.current == 0 {
			return // back at base: nothing to relax
		}
		quiet := m.p.Kernel().Now().Sub(m.lastQualified)
		if quiet >= m.relaxAfter {
			m.Relax(fmt.Sprintf("cascade: quiet for %v", quiet))
		}
		if m.current > 0 {
			m.relaxRef = m.p.Kernel().After(m.relaxAfter, tick)
		}
	}
	m.relaxRef = m.p.Kernel().After(m.relaxAfter, tick)
}

// Escalate moves one mode stricter (no-op at the strictest mode).
func (m *ModeManager) Escalate(reason string) {
	if m.current+1 >= len(m.policies) {
		return
	}
	m.setMode(m.current+1, reason)
}

// Relax moves one mode less strict (no-op at the base mode).
func (m *ModeManager) Relax(reason string) {
	if m.current == 0 {
		return
	}
	m.setMode(m.current-1, reason)
}

// SetMode jumps to the named mode.
func (m *ModeManager) SetMode(name, reason string) error {
	for i, p := range m.policies {
		if p.Name == name {
			if i != m.current {
				m.setMode(i, reason)
			}
			return nil
		}
	}
	return fmt.Errorf("platform: unknown mode %q", name)
}

func (m *ModeManager) setMode(target int, reason string) {
	from := m.policies[m.current]
	to := m.policies[target]
	tr := ModeTransition{
		At: m.p.Kernel().Now(), From: from.Name, To: to.Name, Reason: reason,
	}
	for _, ecu := range m.p.order {
		node := m.p.nodes[ecu]
		for _, app := range node.Apps() {
			inst := node.App(app)
			allowed := inst.Spec.ASIL >= to.MinASIL
			switch {
			case !allowed && inst.State == StateRunning:
				inst.Stop()
				tr.Stopped = append(tr.Stopped, app)
				node.k.Trace("mode", "%s stopped entering %s", app, to.Name)
			case allowed && inst.State == StateStopped && inst.Spec.ASIL < from.MinASIL:
				// Was shed by a stricter mode; resume it.
				if err := inst.Start(); err == nil {
					tr.Resumed = append(tr.Resumed, app)
					node.k.Trace("mode", "%s resumed entering %s", app, to.Name)
				}
			}
		}
	}
	m.current = target
	m.faultsSeen = 0
	for i := range m.cascade {
		m.cascade[i].times = m.cascade[i].times[:0]
	}
	m.Transitions = append(m.Transitions, tr)
	if m.OnTransition != nil {
		m.OnTransition(tr)
	}
}
