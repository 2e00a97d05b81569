package platform

import (
	"fmt"
	"sort"

	"dynaplat/internal/model"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
)

// Platform is the vehicle-wide dynamic platform: it spans every ECU
// running a Node and shares one SOA middleware ("logically located across
// multiple hardware elements and operating systems", Section 1.1).
type Platform struct {
	k     *sim.Kernel
	mw    *soa.Middleware
	nodes map[string]*Node
	// order holds the ECU names of nodes, sorted. Nodes are never
	// removed, and AddNode builds a new slice rather than shifting this
	// one, so a walk over order keeps its snapshot even if a node is
	// added meanwhile.
	order []string
}

// New creates an empty platform. mw may be nil when communication is not
// under test.
func New(k *sim.Kernel, mw *soa.Middleware) *Platform {
	return &Platform{k: k, mw: mw, nodes: map[string]*Node{}}
}

// Kernel returns the simulation kernel.
func (p *Platform) Kernel() *sim.Kernel { return p.k }

// Middleware returns the shared SOA middleware (may be nil).
func (p *Platform) Middleware() *soa.Middleware { return p.mw }

// AddNode creates the platform runtime on an ECU.
func (p *Platform) AddNode(ecu model.ECU, mode Mode, granularity sim.Duration) (*Node, error) {
	if _, ok := p.nodes[ecu.Name]; ok {
		return nil, fmt.Errorf("platform: node %s exists", ecu.Name)
	}
	n := NewNode(p.k, ecu, mode, granularity)
	p.nodes[ecu.Name] = n
	i := sort.SearchStrings(p.order, ecu.Name)
	order := make([]string, 0, len(p.order)+1)
	order = append(order, p.order[:i]...)
	order = append(order, ecu.Name)
	p.order = append(order, p.order[i:]...)
	return n, nil
}

// Node returns the runtime on the named ECU, or nil.
func (p *Platform) Node(ecu string) *Node { return p.nodes[ecu] }

// Nodes returns the sorted ECU names with runtimes.
func (p *Platform) Nodes() []string {
	return append(make([]string, 0, len(p.order)), p.order...)
}

// FindApp locates an installed application instance across nodes.
func (p *Platform) FindApp(name string) (*AppInstance, *Node) {
	for _, ecu := range p.order {
		n := p.nodes[ecu]
		if inst := n.App(name); inst != nil {
			return inst, n
		}
	}
	return nil, nil
}

// StartAll starts every installed application.
func (p *Platform) StartAll() error {
	for _, ecu := range p.order {
		n := p.nodes[ecu]
		for _, app := range n.Apps() {
			inst := n.App(app)
			if inst.State != StateRunning {
				if err := inst.Start(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
