// Package platform implements the paper's core contribution (Figure 2):
// the dynamic platform layer that hosts deterministic applications (DAs)
// and non-deterministic applications (NDAs) side by side on shared
// hardware while guaranteeing freedom of interference.
//
// A Node is the platform runtime on one ECU. In ModeIsolated (the
// platform's design) deterministic applications execute in synthesized
// time-triggered slots and non-deterministic work is confined to the
// gaps. ModeShared is the paper's implicit baseline — a conventional
// priority scheduler without temporal partitioning — used by experiment
// E1 to demonstrate why the platform layer is needed.
package platform

import (
	"fmt"
	"sort"

	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/obs"
	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
)

// Mode selects the node's CPU isolation strategy.
type Mode int

const (
	// ModeIsolated partitions time: DAs run in time-triggered slots,
	// NDAs only in the remaining gaps.
	ModeIsolated Mode = iota
	// ModeShared runs everything in one non-preemptive priority queue
	// (DA releases get priority but can be blocked by a running NDA
	// job) — the interference-prone baseline.
	ModeShared
)

func (m Mode) String() string {
	if m == ModeIsolated {
		return "isolated"
	}
	return "shared"
}

// AppState is an application's lifecycle state on a node.
type AppState int

const (
	StateInstalled AppState = iota
	StateRunning
	StateStopped
)

func (s AppState) String() string {
	switch s {
	case StateInstalled:
		return "installed"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	}
	return "unknown"
}

// Node is the dynamic-platform runtime on one ECU.
type Node struct {
	k    *sim.Kernel
	ecu  model.ECU
	mode Mode
	mgr  *sched.Manager
	mem  *MemoryManager
	apps map[string]*AppInstance
	rng  *sim.RNG

	// epoch anchors the cyclic schedule table; set on first synthesis.
	epoch    sim.Time
	epochSet bool
	// ndaCursor is the virtual time up to which gap CPU time is consumed.
	ndaCursor sim.Time
	// sharedBusyUntil is the CPU-free time in ModeShared; sharedDA and
	// sharedNDA queue the jobs waiting for it (see cpu.go).
	sharedBusyUntil sim.Time
	sharedDA        network.FIFO[*queuedJob]
	sharedNDA       network.FIFO[*queuedJob]

	// comps and jobs recycle pending-completion and shared-CPU job
	// records so that dispatching a job allocates nothing in steady
	// state.
	comps network.Pool[pendingCompletion]
	jobs  network.Pool[queuedJob]
	// gapsFor/gapsCache memoize freeIntervals for the current table.
	gapsFor   *sched.Table
	gapsCache []gap

	// Hooks for the runtime monitor (Section 3.4).
	onComplete []func(Completion)

	// Fault-injection state (see faultinject.go).
	health   Health
	slowdown float64 // 0 or <=1 means nominal

	// Services
	store *PersistenceService
	diag  *DiagnosisService
}

// Completion reports one finished DA activation to monitoring hooks.
type Completion struct {
	App      string
	Job      int64
	Release  sim.Time
	Started  sim.Time
	Finished sim.Time
	Deadline sim.Time
	Missed   bool
}

// NewNode creates a platform runtime for the ECU. granularity configures
// schedule-table synthesis (0 = default). On an observed kernel the node
// records its activations into the kernel's plane (observeNode).
func NewNode(k *sim.Kernel, ecu model.ECU, mode Mode, granularity sim.Duration) *Node {
	n := &Node{
		k:    k,
		ecu:  ecu,
		mode: mode,
		mgr:  sched.NewManager(granularity),
		mem:  NewMemoryManager(ecu.MemoryKB, ecu.HasMMU),
		apps: map[string]*AppInstance{},
		rng:  k.RNG().Split(),
	}
	n.store = NewPersistenceService()
	n.diag = NewDiagnosisService(k)
	if o := obs.Of(k); o != nil {
		observeNode(o, n)
	}
	return n
}

// ECU returns the node's hardware descriptor.
func (n *Node) ECU() model.ECU { return n.ecu }

// Kernel returns the simulation kernel the node runs on.
func (n *Node) Kernel() *sim.Kernel { return n.k }

// Mode returns the CPU isolation mode.
func (n *Node) Mode() Mode { return n.mode }

// Store returns the node's persistence service.
func (n *Node) Store() *PersistenceService { return n.store }

// Diag returns the node's diagnosis service.
func (n *Node) Diag() *DiagnosisService { return n.diag }

// Memory returns the node's memory manager.
func (n *Node) Memory() *MemoryManager { return n.mem }

// OnComplete registers a monitoring hook invoked after every DA
// activation.
func (n *Node) OnComplete(fn func(Completion)) { n.onComplete = append(n.onComplete, fn) }

// Apps returns the sorted names of installed applications.
func (n *Node) Apps() []string {
	out := make([]string, 0, len(n.apps))
	for a := range n.apps {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// App returns the named application instance, or nil.
func (n *Node) App(name string) *AppInstance { return n.apps[name] }

// Install places an application onto the node: memory is allocated in a
// process domain and — for deterministic apps in isolated mode — the
// schedule manager runs admission control. Installation does not start
// execution.
func (n *Node) Install(app model.App, behavior Behavior) (*AppInstance, error) {
	if _, ok := n.apps[app.Name]; ok {
		return nil, fmt.Errorf("platform: app %s already installed on %s", app.Name, n.ecu.Name)
	}
	if app.Kind == model.Deterministic && n.ecu.OS != model.OSRTOS {
		return nil, fmt.Errorf("platform: deterministic app %s needs an RTOS (ECU %s runs %v)",
			app.Name, n.ecu.Name, n.ecu.OS)
	}
	if err := n.mem.NewDomain(app.Name, app.MemoryKB); err != nil {
		return nil, err
	}
	inst := &AppInstance{
		node:     n,
		Spec:     app,
		Behavior: behavior,
		State:    StateInstalled,
	}
	if app.Kind == model.Deterministic && n.mode == ModeIsolated {
		task := sched.Task{
			Name:     app.Name,
			Period:   app.Period,
			WCET:     n.ecu.ScaledWCET(app.WCET),
			Deadline: app.Deadline,
			Jitter:   app.Jitter,
		}
		if _, err := n.mgr.Admit(task); err != nil {
			n.mem.RemoveDomain(app.Name)
			return nil, fmt.Errorf("platform: admission of %s failed: %w", app.Name, err)
		}
		n.realign()
	}
	n.apps[app.Name] = inst
	if n.k.Tracing() {
		n.k.Trace("platform", "installed %s v%d (%v, %v)", app.Name, app.Version, app.Kind, app.ASIL)
	}
	return inst, nil
}

// Uninstall stops and removes an application, releasing its memory and
// schedule slots.
func (n *Node) Uninstall(name string) error {
	inst, ok := n.apps[name]
	if !ok {
		return fmt.Errorf("platform: app %s not installed", name)
	}
	if inst.State == StateRunning {
		inst.Stop()
	}
	if inst.Spec.Kind == model.Deterministic && n.mode == ModeIsolated {
		if err := n.mgr.Remove(name); err != nil {
			return err
		}
		n.realign()
	}
	n.mem.RemoveDomain(name)
	delete(n.apps, name)
	if n.k.Tracing() {
		n.k.Trace("platform", "uninstalled %s", name)
	}
	return nil
}

// realign anchors the schedule epoch the first time a table exists. The
// epoch never moves afterwards: tables repeat cyclically and all releases
// sit on the epoch-aligned period grid, so job indices stay consistent
// across incremental and full resyntheses.
func (n *Node) realign() {
	if n.epochSet {
		return
	}
	if n.mgr.Table() == nil {
		return
	}
	n.epoch = n.k.Now()
	n.epochSet = true
}

// Utilization returns the deterministic CPU utilization of the node.
func (n *Node) Utilization() float64 {
	tbl := n.mgr.Table()
	if tbl == nil {
		return 0
	}
	return tbl.Utilization()
}

// Table exposes the current schedule table (for diagnosis).
func (n *Node) Table() *sched.Table { return n.mgr.Table() }

func (n *Node) notifyComplete(c Completion) {
	for _, fn := range n.onComplete {
		fn(c)
	}
}
