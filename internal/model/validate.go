package model

import (
	"fmt"
	"sort"
)

// Severity classifies a validation finding.
type Severity int

const (
	// Warning findings do not make the model invalid but deserve review.
	Warning Severity = iota
	// Error findings make the deployment unsafe or inconsistent.
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Finding is one verification-engine result.
type Finding struct {
	Severity Severity
	// Rule is a stable identifier, e.g. "placement/unknown-ecu".
	Rule string
	// Subject names the model element the finding is about.
	Subject string
	Msg     string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s [%s] %s: %s", f.Severity, f.Rule, f.Subject, f.Msg)
}

// Report collects validation findings.
type Report struct {
	Findings []Finding
}

// OK reports whether the model has no error-severity findings.
func (r *Report) OK() bool {
	for _, f := range r.Findings {
		if f.Severity == Error {
			return false
		}
	}
	return true
}

// Errors returns only the error-severity findings.
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == Error {
			out = append(out, f)
		}
	}
	return out
}

func (r *Report) add(sev Severity, rule, subject, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Severity: sev, Rule: rule, Subject: subject, Msg: fmt.Sprintf(format, args...),
	})
}

// Validate runs the verification engine (Section 2.2: "an attached
// verification engine should ensure that the interconnections and
// deployment mappings fulfill the defined requirements"). It checks
// referential integrity, resource budgets, placement constraints, the
// ASIL dependency rule, paradigm ownership conventions, and communication
// capacity. Placement-dependent rules are skipped for unplaced apps so
// that partially-specified models (DSE inputs) validate cleanly.
func Validate(s *System) *Report {
	r := &Report{}
	validateRefs(s, r)
	validatePlacement(s, r)
	validateResources(s, r)
	validateTiming(s, r)
	validateSafety(s, r)
	validateComms(s, r)
	return r
}

func validateRefs(s *System, r *Report) {
	for _, n := range s.Networks {
		for _, e := range n.Attached {
			if s.ECU(e) == nil {
				r.add(Error, "network/unknown-ecu", n.Name, "attaches unknown ECU %q", e)
			}
		}
		if n.BitsPerSecond <= 0 {
			r.add(Error, "network/zero-rate", n.Name, "bit rate must be positive")
		}
	}
	for _, i := range s.Interfaces {
		if s.App(i.Owner) == nil {
			r.add(Error, "iface/unknown-owner", i.Name, "owned by unknown app %q", i.Owner)
		}
		if i.Network != "" && s.Network(i.Network) == nil {
			r.add(Error, "iface/unknown-network", i.Name, "mapped to unknown network %q", i.Network)
		}
		if i.PayloadBytes <= 0 {
			r.add(Error, "iface/zero-payload", i.Name, "payload must be positive")
		}
	}
	for _, b := range s.Bindings {
		if s.App(b.Client) == nil {
			r.add(Error, "bind/unknown-client", b.Client, "binding from unknown app")
		}
		ifc := s.Interface(b.Interface)
		if ifc == nil {
			r.add(Error, "bind/unknown-iface", b.Interface, "binding to unknown interface")
			continue
		}
		if ifc.Owner == b.Client {
			r.add(Warning, "bind/self", b.Client, "app binds its own interface %q", b.Interface)
		}
	}
	for app := range s.Placement {
		if s.App(app) == nil {
			r.add(Error, "placement/unknown-app", app, "placement for unknown app")
		}
	}
}

func validatePlacement(s *System, r *Report) {
	for _, a := range s.Apps {
		ecuName, placed := s.Placement[a.Name]
		if !placed {
			continue
		}
		ecu := s.ECU(ecuName)
		if ecu == nil {
			r.add(Error, "placement/unknown-ecu", a.Name, "placed on unknown ECU %q", ecuName)
			continue
		}
		f := a.PlacementFaults(ecu)
		if f&FaultOutsideCandidates != 0 {
			r.add(Error, "placement/outside-candidates", a.Name,
				"placed on %s, outside candidate set %v", ecuName, a.Candidates)
		}
		if f&FaultNeedsRTOS != 0 {
			r.add(Error, "placement/da-needs-rtos", a.Name,
				"deterministic app on non-RTOS ECU %s (Section 3.1)", ecuName)
		}
		if f&FaultNeedsGPU != 0 {
			r.add(Error, "placement/needs-gpu", a.Name, "requires GPU absent on %s", ecuName)
		}
		if f&FaultNeedsCrypto != 0 {
			r.add(Error, "placement/needs-crypto", a.Name, "requires crypto HW absent on %s", ecuName)
		}
	}
	// Mixed-criticality co-location demands an MMU for process separation.
	for _, e := range s.ECUs {
		if l := s.ECULoad(e); e.LoadFaults(&l)&FaultMixedNeedsMMU != 0 {
			r.add(Error, "placement/mixed-needs-mmu", e.Name,
				"hosts ASIL %v..%v apps without an MMU (Section 3.1 Memory)", l.MinASIL, l.MaxASIL)
		}
	}
	// Redundancy requires enough distinct candidate ECUs.
	for _, a := range s.Apps {
		if a.Replicas <= 1 {
			continue
		}
		candidates := a.Candidates
		if len(candidates) == 0 {
			for _, e := range s.ECUs {
				candidates = append(candidates, e.Name)
			}
		}
		if len(candidates) < a.Replicas {
			r.add(Error, "redundancy/too-few-ecus", a.Name,
				"needs %d replicas but only %d candidate ECUs (Section 3.3)",
				a.Replicas, len(candidates))
		}
	}
}

func validateResources(s *System, r *Report) {
	for _, e := range s.ECUs {
		l := s.ECULoad(e)
		f := e.LoadFaults(&l)
		if f&FaultMemory != 0 {
			r.add(Error, "resources/memory", e.Name,
				"memory over-committed: %dKB of %dKB", l.MemoryKB, e.MemoryKB)
		}
		if f&FaultCPU != 0 {
			r.add(Error, "resources/cpu", e.Name,
				"deterministic utilization %.2f exceeds 1.0", l.Util)
		} else if l.Util > 0.8 {
			r.add(Warning, "resources/cpu-high", e.Name,
				"deterministic utilization %.2f leaves little headroom for NDAs", l.Util)
		}
	}
}

func validateTiming(s *System, r *Report) {
	for _, a := range s.Apps {
		if a.Kind != Deterministic {
			continue
		}
		if a.Period <= 0 {
			r.add(Error, "timing/no-period", a.Name, "deterministic app needs a period")
			continue
		}
		if a.WCET <= 0 {
			r.add(Error, "timing/no-wcet", a.Name, "deterministic app needs a WCET")
			continue
		}
		if a.Deadline > a.Period {
			r.add(Warning, "timing/deadline-gt-period", a.Name,
				"deadline %v exceeds period %v", a.Deadline, a.Period)
		}
		if a.WCET > a.Deadline && a.Deadline > 0 {
			r.add(Error, "timing/wcet-gt-deadline", a.Name,
				"WCET %v exceeds deadline %v at reference clock", a.WCET, a.Deadline)
		}
		if ecuName, ok := s.Placement[a.Name]; ok {
			if ecu := s.ECU(ecuName); ecu != nil && a.PlacementFaults(ecu)&FaultWCETOnECU != 0 {
				r.add(Error, "timing/wcet-on-ecu", a.Name, "scaled WCET %v on %s exceeds deadline %v",
					ecu.ScaledWCET(a.WCET), ecuName, a.Deadline)
			}
		}
	}
}

func validateSafety(s *System, r *Report) {
	// ASIL dependency rule (Section 3): a module is only safe if all of its
	// dependencies carry at least its own rating.
	for _, b := range s.Bindings {
		client := s.App(b.Client)
		ifc := s.Interface(b.Interface)
		if client == nil || ifc == nil {
			continue
		}
		owner := s.App(ifc.Owner)
		if owner == nil {
			continue
		}
		if owner.ASIL < client.ASIL {
			r.add(Error, "safety/asil-dependency", b.Client,
				"ASIL %v app depends on interface %q provided by ASIL %v app %q",
				client.ASIL, ifc.Name, owner.ASIL, owner.Name)
		}
	}
}

func validateComms(s *System, r *Report) {
	// Reachability: every binding whose endpoints are placed on different
	// ECUs needs a shared network, and the interface must be mapped to one.
	for _, b := range s.Bindings {
		ifc := s.Interface(b.Interface)
		if ifc == nil || s.App(b.Client) == nil || s.App(ifc.Owner) == nil {
			continue
		}
		cEcu, cOK := s.Placement[b.Client]
		oEcu, oOK := s.Placement[ifc.Owner]
		if !cOK || !oOK || cEcu == oEcu {
			continue
		}
		switch s.CrossingFaults(ifc, oEcu, cEcu) {
		case FaultNeedsNetwork:
			r.add(Error, "comms/needs-network", ifc.Name,
				"crosses ECUs %s→%s but is not mapped to a network", oEcu, cEcu)
		case FaultUnreachable:
			r.add(Error, "comms/unreachable", ifc.Name,
				"network %s does not attach both %s and %s", ifc.Network, oEcu, cEcu)
		}
	}
	// Bandwidth: summed nominal load per network must fit the line rate.
	load := map[string]float64{}
	for _, i := range s.Interfaces {
		if i.Network == "" {
			continue
		}
		load[i.Network] += i.NominalBitsPerSecond()
	}
	names := make([]string, 0, len(load))
	for n := range load {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		n := s.Network(name)
		if n == nil || n.BitsPerSecond <= 0 {
			continue
		}
		frac := load[name] / float64(n.BitsPerSecond)
		switch {
		case frac > 1.0:
			r.add(Error, "comms/bandwidth", name,
				"offered load %.0f bps exceeds capacity %d bps", load[name], n.BitsPerSecond)
		case frac > 0.7:
			r.add(Warning, "comms/bandwidth-high", name,
				"offered load is %.0f%% of capacity", frac*100)
		}
	}
	// Latency plausibility: the pure transmission time of one payload must
	// not already exceed the latency bound.
	for _, i := range s.Interfaces {
		if i.Network == "" || i.LatencyBound <= 0 {
			continue
		}
		n := s.Network(i.Network)
		if n == nil || n.BitsPerSecond <= 0 {
			continue
		}
		txNs := float64(i.PayloadBytes*8) / float64(n.BitsPerSecond) * 1e9
		if txNs > float64(i.LatencyBound) {
			r.add(Error, "comms/latency-infeasible", i.Name,
				"transmitting %dB on %s takes %.0fns, above latency bound %v",
				i.PayloadBytes, n.Name, txNs, i.LatencyBound)
		}
	}
}

// NominalBitsPerSecond returns the steady-state offered load of the
// interface: explicit rate for streams, payload/period otherwise.
func (i *Interface) NominalBitsPerSecond() float64 {
	if i.BitsPerSecond > 0 {
		return float64(i.BitsPerSecond)
	}
	if i.Period <= 0 {
		return 0
	}
	perSec := 1e9 / float64(i.Period)
	bits := float64(i.PayloadBytes * 8)
	if i.Paradigm == Message {
		bits *= 2 // request and response
	}
	return bits * perSec
}
