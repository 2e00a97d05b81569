// Package faults is dynaplat's deterministic fault-injection engine.
//
// The paper's central promise is *uncertainty management*: a dynamic
// platform must keep deterministic applications operational under ECU
// loss, network corruption and partial failure (Sections 3.3 and 3.4).
// Exercising that promise needs machinery that produces faults the way a
// vehicle meets them — bursty, concurrent, mid-protocol — while staying
// perfectly reproducible so a failure found at fault-rate 0.05 with seed
// 42 can be replayed bit-for-bit.
//
// The package provides two composable layers:
//
//   - NetFaults (netfaults.go) wraps any network.Network with a frame-
//     level fault model: loss, payload corruption (caught or silent
//     depending on E2E protection above), babbling-idiot load injection
//     and link partition. CAN, FlexRay and TSN all get the same model
//     without any changes to their internals.
//   - Campaign (campaign.go) draws a reproducible schedule of ECU fault
//     activations and repairs (crash, hang, slow-down, reboot) from
//     configurable distributions and drives it through the sim kernel.
//     ECUs are reached through the narrow Target interface, which
//     platform.Node implements.
//
// Determinism guarantee: every random draw comes from a private RNG
// split off the campaign seed, the whole schedule is materialized before
// the first event fires, and frame-level draws happen in Send order —
// which the kernel already totally orders. Two runs with the same seed
// and the same event program produce byte-identical fault sequences.
package faults

import (
	"fmt"

	"dynaplat/internal/sim"
)

// Kind classifies an injected fault.
type Kind int

const (
	// ECUCrash stops every application on the node and drops it off its
	// networks until repair.
	ECUCrash Kind = iota
	// ECUHang makes the node unresponsive — applications stop executing
	// and the node stops answering on its networks — while it keeps
	// holding its resources (memory domains, schedule slots).
	ECUHang
	// ECUSlowdown inflates execution times by a configurable factor
	// (thermal throttling, cache thrashing): the WCET assumption breaks
	// and deadline misses surface through the monitor.
	ECUSlowdown
	// ECUReboot is a crash followed by an automatic restart after the
	// configured reboot delay.
	ECUReboot
	// NetLoss is frame loss injected by NetFaults.
	NetLoss
	// NetCorruption is payload corruption injected by NetFaults.
	NetCorruption
	// NetPartition cuts one or more stations off a network.
	NetPartition
	// NetBabble is babbling-idiot load injection.
	NetBabble
)

func (k Kind) String() string {
	switch k {
	case ECUCrash:
		return "ecu-crash"
	case ECUHang:
		return "ecu-hang"
	case ECUSlowdown:
		return "ecu-slowdown"
	case ECUReboot:
		return "ecu-reboot"
	case NetLoss:
		return "net-loss"
	case NetCorruption:
		return "net-corruption"
	case NetPartition:
		return "net-partition"
	case NetBabble:
		return "net-babble"
	}
	return "unknown"
}

// Silences reports whether the kind silences its target ECU — the node
// stops executing and leaves its networks until repair (crash, hang,
// reboot). Slowdowns degrade but keep the node reachable.
func (k Kind) Silences() bool {
	return k == ECUCrash || k == ECUHang || k == ECUReboot
}

// Phase distinguishes activation from repair in the campaign log.
type Phase int

const (
	// PhaseInject marks a fault activation.
	PhaseInject Phase = iota
	// PhaseRepair marks the corresponding repair.
	PhaseRepair
)

func (p Phase) String() string {
	if p == PhaseRepair {
		return "repair"
	}
	return "inject"
}

// Record is one entry of a campaign's fault log.
type Record struct {
	At     sim.Time
	Kind   Kind
	Phase  Phase
	Target string
	Detail string
}

func (r Record) String() string {
	return fmt.Sprintf("%v %v %v %s %s", r.At, r.Phase, r.Kind, r.Target, r.Detail)
}

// Target is the narrow ECU control surface the campaign drives.
// platform.Node implements it; tests may substitute fakes.
type Target interface {
	// Crash stops every running application and marks the node down. It
	// returns the names of the applications it stopped so Restore can
	// bring exactly those back.
	Crash() []string
	// Restore clears the down state and restarts the named applications.
	Restore(apps []string)
	// SetHung toggles the unresponsive-but-resource-holding state.
	SetHung(hung bool)
	// SetSlowdown sets the execution-time inflation factor (1 = nominal).
	SetSlowdown(factor float64)
}

// PassiveTarget is a Target with no platform behind it: it absorbs every
// control call. Registering an ECU with it still lets the campaign
// partition the ECU's network stations, which is then the fault's only
// observable effect.
type PassiveTarget struct{}

func (PassiveTarget) Crash() []string     { return nil }
func (PassiveTarget) Restore([]string)    {}
func (PassiveTarget) SetHung(bool)        {}
func (PassiveTarget) SetSlowdown(float64) {}
