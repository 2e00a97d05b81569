package platform

// Fault-injection control surface (implements faults.Target without
// importing it). The deterministic fault-injection engine drives nodes
// through these methods; they are also usable directly by tests and the
// failover examples.
//
// Three orthogonal health dimensions exist:
//
//   - down: the node crashed — every application stopped, resources
//     released back only on Restore (which restarts exactly the apps the
//     crash took down).
//   - hung: the node stops responding — deterministic releases fire but
//     execute nothing (no outputs, no heartbeats) and NDA submissions
//     are rejected — while memory domains and schedule slots stay
//     allocated. Clearing the hang resumes execution on the next
//     release, with no reinstallation.
//   - slowdown: execution times are inflated by a factor (thermal
//     throttling, cache thrashing). Factors large enough to push
//     responses past deadlines surface as FaultDeadlineMiss through the
//     normal completion path, which is what the monitor and the mode
//     cascade react to.

// Health is a node's fault-injection state.
type Health int

const (
	// HealthUp is nominal operation.
	HealthUp Health = iota
	// HealthDown means the node crashed (apps stopped).
	HealthDown
	// HealthHung means the node holds resources but does not respond.
	HealthHung
)

func (h Health) String() string {
	switch h {
	case HealthDown:
		return "down"
	case HealthHung:
		return "hung"
	}
	return "up"
}

// Health returns the node's current fault-injection state.
func (n *Node) Health() Health { return n.health }

// Crash stops every running application and marks the node down,
// returning the names of the apps it stopped (pass them to Restore to
// model a repair or reboot). In-flight NDA jobs complete — the CPU time
// was already committed — matching AppInstance.Stop semantics.
func (n *Node) Crash() []string {
	var stopped []string
	for _, app := range n.Apps() {
		inst := n.apps[app]
		if inst.State == StateRunning {
			inst.Stop()
			stopped = append(stopped, app)
		}
	}
	n.health = HealthDown
	n.k.Trace("fault", "node %s crashed (%d apps stopped)", n.ecu.Name, len(stopped))
	return stopped
}

// Restore clears the down state and restarts the named applications
// (ignoring apps uninstalled in the meantime).
func (n *Node) Restore(apps []string) {
	n.health = HealthUp
	for _, app := range apps {
		if inst, ok := n.apps[app]; ok && inst.State != StateRunning {
			_ = inst.Start()
		}
	}
	n.k.Trace("fault", "node %s restored (%d apps restarted)", n.ecu.Name, len(apps))
}

// SetHung toggles the unresponsive state. While hung, deterministic
// releases occur but execute nothing and Submit rejects NDA work; the
// node's memory domains and schedule slots remain held.
func (n *Node) SetHung(hung bool) {
	switch {
	case hung:
		n.health = HealthHung
		n.k.Trace("fault", "node %s hung", n.ecu.Name)
	case n.health == HealthHung:
		n.health = HealthUp
		n.k.Trace("fault", "node %s unhung", n.ecu.Name)
	}
}

// SetSlowdown sets the execution-time inflation factor. Factors <= 1
// restore nominal speed. The factor applies after the WCET clamp, so an
// inflated execution can exceed the WCET the schedule was synthesized
// for — exactly the assumption violation a slow-down fault models.
func (n *Node) SetSlowdown(factor float64) {
	if factor <= 1 {
		n.slowdown = 0
		n.k.Trace("fault", "node %s slowdown cleared", n.ecu.Name)
		return
	}
	n.slowdown = factor
	n.k.Trace("fault", "node %s slowdown x%.1f", n.ecu.Name, factor)
}

// Slowdown returns the active inflation factor (1 when nominal).
func (n *Node) Slowdown() float64 {
	if n.slowdown <= 1 {
		return 1
	}
	return n.slowdown
}
