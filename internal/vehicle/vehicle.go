// Package vehicle turns a system model into a running vehicle. Build is
// the one assembly path that the facade, the fleet, the fuzzer and the
// experiments share.
package vehicle

import (
	"fmt"

	"dynaplat/internal/can"
	"dynaplat/internal/faults"
	"dynaplat/internal/flexray"
	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/platform"
	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/tsn"
)

// Config selects how Build instantiates a model.
type Config struct {
	// Mode is the CPU isolation strategy of every node.
	Mode platform.Mode
	// Faults, when set, wraps every network in a fault layer with this
	// configuration.
	Faults *faults.NetConfig
}

// Vehicle is an assembled vehicle. Nothing runs until the caller starts
// its applications.
type Vehicle struct {
	Middleware *soa.Middleware
	Platform   *platform.Platform
	// Networks holds every model network as the middleware sees it (its
	// fault layer when Config.Faults is set), by name.
	Networks map[string]network.Network
	// Faults holds the fault layers in model network order.
	Faults []*faults.NetFaults
}

// Build instantiates sys on k without validating it: one medium per
// model network at its line rate, attached to a new middleware; one
// node per ECU; every placed app installed with a default behavior; and
// every Event/Stream interface of a placed owner offered. Callers refine
// behaviors and start apps afterwards. Every network is created before
// any node, because the fault layer and the node both split the kernel
// RNG. On an observed kernel every part records into the kernel's obs
// plane.
func Build(k *sim.Kernel, sys *model.System, cfg Config) (*Vehicle, error) {
	mw := soa.New(k, nil)
	v := &Vehicle{Middleware: mw, Platform: platform.New(k, mw), Networks: map[string]network.Network{}}
	for _, n := range sys.Networks {
		net, mtu := newMedium(k, n)
		if cfg.Faults != nil {
			nf := faults.WrapNetwork(k, net, *cfg.Faults)
			v.Faults = append(v.Faults, nf)
			net = nf
		}
		mw.AddNetwork(net, mtu)
		v.Networks[n.Name] = net
	}
	for _, e := range sys.ECUs {
		if _, err := v.Platform.AddNode(*e, cfg.Mode, sched.DefaultGranularity); err != nil {
			return nil, err
		}
	}
	for _, a := range sys.Apps {
		ecu, placed := sys.Placement[a.Name]
		if !placed {
			continue
		}
		node := v.Platform.Node(ecu)
		if node == nil {
			return nil, fmt.Errorf("vehicle: app %s placed on unknown ECU %s", a.Name, ecu)
		}
		if _, err := node.Install(*a, platform.Behavior{}); err != nil {
			return nil, fmt.Errorf("vehicle: install %s on %s: %w", a.Name, ecu, err)
		}
	}
	// Message handlers are application logic: the app offers those.
	for _, ifc := range sys.Interfaces {
		ecu, placed := sys.Placement[ifc.Owner]
		if !placed || ifc.Paradigm == model.Message {
			continue
		}
		if _, ok := v.Networks[ifc.Network]; !ok && ifc.Network != "" {
			return nil, fmt.Errorf("vehicle: interface %s on unknown network %s", ifc.Name, ifc.Network)
		}
		class := network.ClassPriority
		if a := sys.App(ifc.Owner); a != nil && a.Kind == model.Deterministic {
			class = network.ClassControl
		}
		if ifc.Paradigm == model.Stream {
			class = network.ClassBulk
		}
		mw.Endpoint(ifc.Owner, ecu).Offer(ifc.Name,
			soa.OfferOpts{Class: class, Network: ifc.Network, Version: ifc.Version})
	}
	return v, nil
}

// newMedium creates the simulated bus of one model network and returns
// it with the payload MTU the middleware segments to.
func newMedium(k *sim.Kernel, n *model.Network) (network.Network, int) {
	switch n.Kind {
	case model.NetCAN:
		return can.New(k, can.Config{Name: n.Name, BitsPerSecond: n.BitsPerSecond,
			WorstCaseStuffing: true}), can.MaxPayload
	case model.NetFlexRay:
		cfg := flexray.DefaultConfig(n.Name)
		cfg.BitsPerSecond = n.BitsPerSecond
		fr := flexray.New(k, cfg)
		// One static slot per attached ECU, in attach order.
		for i, ecu := range n.Attached {
			if i < cfg.StaticSlots {
				fr.AssignSlot(i, ecu)
			}
		}
		return fr, cfg.StaticPayload
	default:
		cfg := tsn.DefaultConfig(n.Name)
		cfg.BitsPerSecond = n.BitsPerSecond
		return tsn.New(k, cfg), 1400
	}
}
