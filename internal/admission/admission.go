// Package admission implements vehicle-level online admission control
// (the paper's Section 5.3, following references [6] and [19]): before a
// newly installed application is accepted, a compositional analysis
// checks that every resource it needs — CPU time on its target ECU,
// memory, and communication capacity for its interfaces — still meets all
// timing requirements, and computes the configuration to install. The
// check is conservative: rejection leaves the vehicle untouched.
package admission

import (
	"fmt"

	"dynaplat/internal/can"
	"dynaplat/internal/model"
	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
)

// Decision is the outcome of one admission test.
type Decision struct {
	Admitted bool
	// Reasons lists every violated constraint (empty when admitted).
	Reasons []string
	// CPUUtilAfter, MemAfterKB and BusLoadAfter describe the would-be
	// post-admission state of the touched resources.
	CPUUtilAfter float64
	MemAfterKB   int
	BusLoadAfter map[string]float64
}

func (d *Decision) reject(format string, args ...any) {
	d.Reasons = append(d.Reasons, fmt.Sprintf(format, args...))
}

// Controller performs admission tests against a system model that
// reflects the vehicle's current configuration.
type Controller struct {
	sys *model.System
	// gen counts the changes Admit, Install, Remove and Restore made to
	// the deployment (Generation).
	gen uint64
	// MaxBusLoad is the admissible fraction of any network's capacity
	// (default 0.75, the classic engineering bound for CAN).
	MaxBusLoad float64
	// Granularity for exact schedule-synthesis fallbacks.
	Granularity sim.Duration
}

// NewController creates a controller over the current system model.
func NewController(sys *model.System) *Controller {
	return &Controller{sys: sys, MaxBusLoad: 0.75, Granularity: 250 * sim.Microsecond}
}

// System returns the model the controller admits against (the reconfig
// orchestrator plans over it).
func (c *Controller) System() *model.System { return c.sys }

// Generation advances whenever the controller changes the deployment —
// apps, interfaces or placement — so a reader can keep a value derived
// from it until the generation moves. Changes made to the model other
// than through the controller do not advance it.
func (c *Controller) Generation() uint64 { return c.gen }

// Request is one admission request: an application, its target ECU, and
// the interfaces it will provide.
type Request struct {
	App        model.App
	ECU        string
	Interfaces []model.Interface
}

// Check runs the full compositional test without mutating the model.
func (c *Controller) Check(req Request) Decision {
	d := Decision{BusLoadAfter: map[string]float64{}}
	ecu := c.sys.ECU(req.ECU)
	if ecu == nil {
		d.reject("unknown ECU %q", req.ECU)
		return d
	}
	if c.sys.App(req.App.Name) != nil {
		d.reject("app %s already installed", req.App.Name)
		return d
	}

	// --- Placement constraints (same rules the verification engine uses).
	if req.App.Kind == model.Deterministic && ecu.OS != model.OSRTOS {
		d.reject("deterministic app needs an RTOS; %s runs %v", ecu.Name, ecu.OS)
	}
	if req.App.NeedsGPU && !ecu.HasGPU {
		d.reject("needs GPU absent on %s", ecu.Name)
	}
	if req.App.NeedsCrypto && !ecu.HasCryptoHW {
		d.reject("needs crypto HW absent on %s", ecu.Name)
	}

	// --- Memory.
	d.MemAfterKB = c.sys.ECUMemoryUse(ecu) + req.App.MemoryKB
	if d.MemAfterKB > ecu.MemoryKB {
		d.reject("memory: %d+%d > %dKB on %s",
			c.sys.ECUMemoryUse(ecu), req.App.MemoryKB, ecu.MemoryKB, ecu.Name)
	}

	// --- CPU: exact schedulability of the deterministic set on the ECU.
	if req.App.Kind == model.Deterministic {
		tasks := ecu.Tasks(c.sys.AppsOn(ecu.Name))
		tasks = append(tasks, sched.Task{
			Name: req.App.Name, Period: req.App.Period,
			WCET: ecu.ScaledWCET(req.App.WCET), Deadline: req.App.Deadline,
			Jitter: req.App.Jitter,
		})
		d.CPUUtilAfter = sched.TotalUtilization(tasks)
		if err := sched.ValidateSet(tasks); err != nil {
			d.reject("task set invalid: %v", err)
		} else if d.CPUUtilAfter > 1 {
			d.reject("CPU: utilization %.2f > 1 on %s", d.CPUUtilAfter, ecu.Name)
		} else if _, ok, _ := sched.ResponseTimeAnalysis(tasks); !ok {
			// RTA is sufficient-only; confirm with exact EDF synthesis.
			if _, err := sched.Synthesize(tasks, c.Granularity); err != nil {
				d.reject("CPU: not schedulable on %s: %v", ecu.Name, err)
			}
		}
	} else {
		d.CPUUtilAfter = c.sys.ECUUtilization(ecu)
	}

	// --- Communication, per target network.
	for _, ifc := range req.Interfaces {
		if ifc.Network == "" {
			continue
		}
		net := c.sys.Network(ifc.Network)
		if net == nil {
			d.reject("interface %s: unknown network %q", ifc.Name, ifc.Network)
			continue
		}
		if !net.Attaches(req.ECU) {
			d.reject("interface %s: network %s does not attach %s",
				ifc.Name, net.Name, req.ECU)
			continue
		}
		switch net.Kind {
		case model.NetCAN:
			c.checkCAN(&d, net, ifc)
		default:
			c.checkLoad(&d, net, ifc)
		}
	}
	d.Admitted = len(d.Reasons) == 0
	return d
}

// Admit runs Check and, on success, installs the app and interfaces into
// the model so subsequent admissions see them.
func (c *Controller) Admit(req Request) (Decision, error) {
	d := c.Check(req)
	if !d.Admitted {
		return d, fmt.Errorf("admission: rejected: %s", d.Reasons[0])
	}
	c.Install(req.App, req.ECU, req.Interfaces)
	return d, nil
}

// Install puts an app and its interfaces into the model at ecu without
// the admission test. The reconfig orchestrator uses it to keep a
// stranded app modeled at its failed ECU (the model records intent; a
// repair revives it) and to revert a failed re-home.
func (c *Controller) Install(app model.App, ecu string, ifaces []model.Interface) {
	c.sys.Apps = append(c.sys.Apps, &app)
	c.sys.Placement[app.Name] = ecu
	for i := range ifaces {
		ifc := ifaces[i]
		c.sys.Interfaces = append(c.sys.Interfaces, &ifc)
	}
	c.gen++
}

// AdmitAll admits a batch of requests atomically: either every request
// is admitted (in slice order, each seeing the effects of the previous
// ones) or none is — a mid-batch rejection restores the model to the
// exact pre-batch state. The returned decisions cover every request the
// batch evaluated, including the rejecting one; requests after the first
// rejection are not evaluated.
func (c *Controller) AdmitAll(reqs []Request) ([]Decision, error) {
	snap := c.Snapshot()
	out := make([]Decision, 0, len(reqs))
	for i, req := range reqs {
		d, err := c.Admit(req)
		out = append(out, d)
		if err != nil {
			c.Restore(snap)
			return out, fmt.Errorf("admission: batch request %d (%s): %w", i, req.App.Name, err)
		}
	}
	return out, nil
}

// Snapshot captures the mutable deployment state of the model — apps,
// interfaces and placement — so a transaction (AdmitAll, a reconfig
// recovery plan) can roll back to it. The hardware architecture (ECUs,
// networks, bindings) is not snapshotted: admission never mutates it.
type Snapshot struct {
	apps      []model.App
	ifaces    []model.Interface
	placement map[string]string
}

// Snapshot deep-copies the deployment state.
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{
		apps:      make([]model.App, len(c.sys.Apps)),
		ifaces:    make([]model.Interface, len(c.sys.Interfaces)),
		placement: make(map[string]string, len(c.sys.Placement)),
	}
	for i, a := range c.sys.Apps {
		s.apps[i] = *a
	}
	for i, ifc := range c.sys.Interfaces {
		s.ifaces[i] = *ifc
	}
	for app, ecu := range c.sys.Placement {
		s.placement[app] = ecu
	}
	return s
}

// Restore writes a snapshot back into the model, discarding every
// admission and removal since it was taken.
func (c *Controller) Restore(s Snapshot) {
	c.sys.Apps = make([]*model.App, len(s.apps))
	for i := range s.apps {
		a := s.apps[i]
		c.sys.Apps[i] = &a
	}
	c.sys.Interfaces = make([]*model.Interface, len(s.ifaces))
	for i := range s.ifaces {
		ifc := s.ifaces[i]
		c.sys.Interfaces[i] = &ifc
	}
	c.sys.Placement = make(map[string]string, len(s.placement))
	for app, ecu := range s.placement {
		c.sys.Placement[app] = ecu
	}
	c.gen++
}

// Remove uninstalls an app and its interfaces from the model.
func (c *Controller) Remove(app string) error {
	if c.sys.App(app) == nil {
		return fmt.Errorf("admission: app %s not installed", app)
	}
	apps := c.sys.Apps[:0]
	for _, a := range c.sys.Apps {
		if a.Name != app {
			apps = append(apps, a)
		}
	}
	c.sys.Apps = apps
	ifaces := c.sys.Interfaces[:0]
	for _, i := range c.sys.Interfaces {
		if i.Owner != app {
			ifaces = append(ifaces, i)
		}
	}
	c.sys.Interfaces = ifaces
	delete(c.sys.Placement, app)
	c.gen++
	return nil
}

// checkCAN runs worst-case frame response-time analysis over the bus's
// existing periodic frames plus the new interface.
func (c *Controller) checkCAN(d *Decision, net *model.Network, ifc model.Interface) {
	cfg := can.Config{BitsPerSecond: net.BitsPerSecond, WorstCaseStuffing: true}
	var frames []can.FrameSpec
	id := uint32(0x100)
	for _, existing := range c.sys.Interfaces {
		if existing.Network != net.Name || existing.Period <= 0 {
			continue
		}
		bytes := existing.PayloadBytes
		if bytes > can.MaxPayload {
			bytes = can.MaxPayload // middleware segments; model first frame
		}
		frames = append(frames, can.FrameSpec{
			ID: id, Period: existing.Period, Bytes: bytes,
			Deadline: existing.LatencyBound,
		})
		id += 0x10
	}
	newBytes := ifc.PayloadBytes
	if newBytes > can.MaxPayload {
		newBytes = can.MaxPayload
	}
	frames = append(frames, can.FrameSpec{
		ID: id, Period: ifc.Period, Bytes: newBytes, Deadline: ifc.LatencyBound,
	})
	if ifc.Period <= 0 {
		d.reject("interface %s: CAN admission needs a period", ifc.Name)
		return
	}
	u := can.BusUtilization(frames, cfg)
	d.BusLoadAfter[net.Name] = u
	if u > c.MaxBusLoad {
		d.reject("bus %s: load %.2f > %.2f", net.Name, u, c.MaxBusLoad)
		return
	}
	if _, ok, err := can.ResponseTimeAnalysis(frames, cfg); err != nil || !ok {
		d.reject("bus %s: frame set not schedulable (err=%v)", net.Name, err)
	}
}

// checkLoad runs the bandwidth test for switched/TDMA networks.
func (c *Controller) checkLoad(d *Decision, net *model.Network, ifc model.Interface) {
	load := ifc.NominalBitsPerSecond()
	for _, existing := range c.sys.Interfaces {
		if existing.Network == net.Name {
			load += existing.NominalBitsPerSecond()
		}
	}
	frac := load / float64(net.BitsPerSecond)
	d.BusLoadAfter[net.Name] = frac
	if frac > c.MaxBusLoad {
		d.reject("network %s: load %.2f > %.2f", net.Name, frac, c.MaxBusLoad)
	}
}
