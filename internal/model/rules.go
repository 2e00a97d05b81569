package model

import "slices"

// The placement rules: the checks whose verdict depends on where apps
// run. Validate reports them as findings; design-space exploration
// evaluates the same helpers over compiled placements, so the two can
// never disagree about which deployment is legal.

// Fault is a set of broken placement rules, one bit per Validate rule.
type Fault uint16

// The Fault bits, each named after the Validate rule it stands for.
const (
	FaultOutsideCandidates Fault = 1 << iota // placement/outside-candidates
	FaultNeedsRTOS                           // placement/da-needs-rtos
	FaultNeedsGPU                            // placement/needs-gpu
	FaultNeedsCrypto                         // placement/needs-crypto
	FaultWCETOnECU                           // timing/wcet-on-ecu
	FaultMemory                              // resources/memory
	FaultCPU                                 // resources/cpu
	FaultMixedNeedsMMU                       // placement/mixed-needs-mmu
	FaultNeedsNetwork                        // comms/needs-network
	FaultUnreachable                         // comms/unreachable
)

// placementRules are the rule IDs whose findings depend on which ECU
// each app is placed on: every Fault, plus placement/unknown-ecu.
var placementRules = map[string]bool{
	"placement/unknown-ecu":        true,
	"placement/outside-candidates": true,
	"placement/da-needs-rtos":      true,
	"placement/needs-gpu":          true,
	"placement/needs-crypto":       true,
	"timing/wcet-on-ecu":           true,
	"resources/memory":             true,
	"resources/cpu":                true,
	"placement/mixed-needs-mmu":    true,
	"comms/needs-network":          true,
	"comms/unreachable":            true,
}

// PlacementIndependentOK reports whether r has no error finding outside
// the placement rules. Every other rule reads no app-to-ECU assignment
// (placement/unknown-app reads only the placement's keys), so its
// findings are the same for every placement of the same apps.
func (r *Report) PlacementIndependentOK() bool {
	for _, f := range r.Findings {
		if f.Severity == Error && !placementRules[f.Rule] {
			return false
		}
	}
	return true
}

// PlacementFaults returns the per-(app, ECU) rules that placing a on e
// breaks: the candidate set, an RTOS for deterministic apps, GPU and
// crypto hardware, and the WCET scaled to e's clock against the deadline.
func (a *App) PlacementFaults(e *ECU) Fault {
	var f Fault
	if len(a.Candidates) > 0 && !slices.Contains(a.Candidates, e.Name) {
		f |= FaultOutsideCandidates
	}
	if a.Kind == Deterministic && e.OS != OSRTOS {
		f |= FaultNeedsRTOS
	}
	if a.NeedsGPU && !e.HasGPU {
		f |= FaultNeedsGPU
	}
	if a.NeedsCrypto && !e.HasCryptoHW {
		f |= FaultNeedsCrypto
	}
	if a.Kind == Deterministic && a.Period > 0 && a.WCET > 0 && a.Deadline > 0 &&
		e.ScaledWCET(a.WCET) > a.Deadline {
		f |= FaultWCETOnECU
	}
	return f
}

// AppUtilization returns the CPU utilization a puts on e: its WCET
// scaled to e's clock over its period for deterministic periodic apps,
// 0 otherwise.
func (e *ECU) AppUtilization(a *App) float64 {
	if a.Kind != Deterministic || a.Period <= 0 {
		return 0
	}
	return float64(e.ScaledWCET(a.WCET)) / float64(a.Period)
}

// ECULoad is what the apps placed on one ECU demand of it: the inputs of
// the per-ECU placement rules. Sums are accumulated in the order apps
// are added, which callers keep as System.Apps order so that
// utilizations are bit-identical however they are computed.
type ECULoad struct {
	Apps     int
	MemoryKB int
	// Util is the deterministic utilization scaled to the ECU's clock.
	Util             float64
	MinASIL, MaxASIL ASIL
}

// Add accounts app a, whose utilization on the ECU is u
// (ECU.AppUtilization).
func (l *ECULoad) Add(a *App, u float64) {
	if l.Apps == 0 || a.ASIL < l.MinASIL {
		l.MinASIL = a.ASIL
	}
	if l.Apps == 0 || a.ASIL > l.MaxASIL {
		l.MaxASIL = a.ASIL
	}
	l.Apps++
	l.MemoryKB += a.MemoryKB
	l.Util += u
}

// ECULoad returns the load of the apps placed on e.
func (s *System) ECULoad(e *ECU) ECULoad {
	var l ECULoad
	for _, a := range s.AppsOn(e.Name) {
		l.Add(a, e.AppUtilization(a))
	}
	return l
}

// LoadFaults returns the per-ECU rules that load l breaks on e: memory,
// deterministic utilization above 1, and mixed ASIL levels without an
// MMU to separate them.
func (e *ECU) LoadFaults(l *ECULoad) Fault {
	var f Fault
	if l.MemoryKB > e.MemoryKB {
		f |= FaultMemory
	}
	if l.Util > 1.0 {
		f |= FaultCPU
	}
	if l.Apps >= 2 && !e.HasMMU && l.MinASIL != l.MaxASIL {
		f |= FaultMixedNeedsMMU
	}
	return f
}

// CrossingFaults returns the comms rules that interface ifc breaks when
// its owner runs on ECU oEcu and a client on a different ECU cEcu: it
// must be mapped to a network, and that network must attach both.
func (s *System) CrossingFaults(ifc *Interface, oEcu, cEcu string) Fault {
	if ifc.Network == "" {
		return FaultNeedsNetwork
	}
	if n := s.Network(ifc.Network); n != nil && (!n.Attaches(cEcu) || !n.Attaches(oEcu)) {
		return FaultUnreachable
	}
	return 0
}
