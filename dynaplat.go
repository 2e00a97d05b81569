// Package dynaplat is the public facade over the dynamic-platform
// reproduction of Mundhenk et al., "Dynamic Platforms for Uncertainty
// Management in Future Automotive E/E Architectures" (DAC 2017).
//
// A Simulation wires together everything a scenario needs: the
// deterministic virtual-time kernel, the simulated in-vehicle networks
// built from the system model at their modeled rates, the SOA
// middleware, and a platform node per ECU at the default 250µs
// schedule-table granularity. The wiring is internal/vehicle.Build, the
// same assembly the fleet, the fuzzer and the experiments use. Build
// one from DSL text (see internal/model for the syntax):
//
//	sim, err := dynaplat.FromDSL(dslText, dynaplat.Options{Seed: 1})
//	...
//	sim.StartAll()
//	sim.Run(5 * dynaplat.Second)
//
// The subsystem packages under internal/ carry the full functionality;
// this package re-exports the types needed to drive end-to-end scenarios.
package dynaplat

import (
	"fmt"

	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/platform"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/vehicle"
)

// Re-exported core types. The subsystem packages remain the source of
// truth; these aliases let applications build scenarios without
// spelling out internal import paths.
type (
	// Kernel is the deterministic discrete-event executive.
	Kernel = sim.Kernel
	// Time and Duration are virtual-time instants and spans.
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// System is the parsed system model.
	System = model.System
	// Platform spans the per-ECU runtimes.
	Platform = platform.Platform
	// Node is the dynamic-platform runtime on one ECU.
	Node = platform.Node
	// AppInstance is one installed application.
	AppInstance = platform.AppInstance
	// Behavior configures what an application does when activated.
	Behavior = platform.Behavior
	// Middleware is the service-oriented communication layer.
	Middleware = soa.Middleware
	// Endpoint is an application's port into the middleware.
	Endpoint = soa.Endpoint
	// Event is a delivered publication, stream frame or RPC response.
	Event = soa.Event
	// OfferOpts configures an offered service interface.
	OfferOpts = soa.OfferOpts
	// Mode selects the CPU isolation strategy of a node.
	Mode = platform.Mode
)

// Virtual-time duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// CPU isolation modes (see platform.Mode).
const (
	ModeIsolated = platform.ModeIsolated
	ModeShared   = platform.ModeShared
)

// Application kinds and ASIL levels, re-exported from the model.
const (
	Deterministic    = model.Deterministic
	NonDeterministic = model.NonDeterministic
	QM               = model.QM
	ASILA            = model.ASILA
	ASILB            = model.ASILB
	ASILC            = model.ASILC
	ASILD            = model.ASILD
)

// ParseModel parses DSL text into a system model.
func ParseModel(dsl string) (*System, error) { return model.ParseString(dsl) }

// ValidateModel runs the verification engine and returns the findings
// rendered as strings (empty means the model is clean of errors; warnings
// are included).
func ValidateModel(sys *System) (findings []string, ok bool) {
	rep := model.Validate(sys)
	for _, f := range rep.Findings {
		findings = append(findings, f.String())
	}
	return findings, rep.OK()
}

// Options configures FromDSL.
type Options struct {
	// Seed feeds the deterministic RNG (default 1).
	Seed uint64
	// Mode selects the CPU model of every node (default ModeIsolated).
	Mode Mode
}

// Simulation is a fully wired scenario.
type Simulation struct {
	Kernel     *Kernel
	Model      *System
	Platform   *Platform
	Middleware *Middleware
	// Networks holds the simulated buses by model network name.
	Networks map[string]network.Network
}

// FromDSL parses, validates and instantiates a complete simulation (see
// FromModel).
func FromDSL(dsl string, opts Options) (*Simulation, error) {
	sys, err := model.ParseString(dsl)
	if err != nil {
		return nil, err
	}
	return FromModel(sys, opts)
}

// FromModel validates an already-built model and instantiates it through
// vehicle.Build: one simulated network per model network (CAN, FlexRay
// or Ethernet/TSN) at its modeled rate, a shared middleware, and a
// platform node per ECU with every placed application installed and its
// Event/Stream interfaces offered.
func FromModel(sys *System, opts Options) (*Simulation, error) {
	if rep := model.Validate(sys); !rep.OK() {
		return nil, fmt.Errorf("dynaplat: model invalid: %v", rep.Errors()[0])
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	k := sim.NewKernel(opts.Seed)
	v, err := vehicle.Build(k, sys, vehicle.Config{Mode: opts.Mode})
	if err != nil {
		return nil, err
	}
	return &Simulation{Kernel: k, Model: sys, Platform: v.Platform,
		Middleware: v.Middleware, Networks: v.Networks}, nil
}

// StartAll starts every installed application.
func (s *Simulation) StartAll() error { return s.Platform.StartAll() }

// Run advances virtual time by d.
func (s *Simulation) Run(d Duration) { s.Kernel.RunFor(d) }

// Node returns the platform runtime on the named ECU, or nil.
func (s *Simulation) Node(ecu string) *Node { return s.Platform.Node(ecu) }

// App locates an installed application across all nodes, or nil.
func (s *Simulation) App(name string) *AppInstance {
	inst, _ := s.Platform.FindApp(name)
	return inst
}

// Endpoint returns (creating if needed) the middleware endpoint of an
// application placed in the model.
func (s *Simulation) Endpoint(app string) (*Endpoint, error) {
	ecu, ok := s.Model.Placement[app]
	if !ok {
		return nil, fmt.Errorf("dynaplat: app %s is not placed", app)
	}
	return s.Middleware.Endpoint(app, ecu), nil
}
