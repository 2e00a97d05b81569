// Package model defines the dynaplat system model: hardware architecture,
// applications, service interfaces, and deployments, together with a text
// DSL, a verification engine, and access-control extraction.
//
// The model is the single source of truth the paper's Section 2.2 calls
// for: schedules, communication configurations, access-control matrices and
// simulation inputs are all derived from it.
package model

import (
	"fmt"

	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
)

// ASIL is an ISO 26262 Automotive Safety Integrity Level.
// QM (quality managed) is the lowest; D is the highest.
type ASIL int

// ASIL levels in increasing criticality.
const (
	QM ASIL = iota
	ASILA
	ASILB
	ASILC
	ASILD
)

var asilNames = map[ASIL]string{QM: "QM", ASILA: "A", ASILB: "B", ASILC: "C", ASILD: "D"}

func (a ASIL) String() string {
	if s, ok := asilNames[a]; ok {
		return s
	}
	return fmt.Sprintf("ASIL(%d)", int(a))
}

// ParseASIL parses "QM", "A".."D" (case-insensitive).
func ParseASIL(s string) (ASIL, error) {
	switch normalize(s) {
	case "qm":
		return QM, nil
	case "a":
		return ASILA, nil
	case "b":
		return ASILB, nil
	case "c":
		return ASILC, nil
	case "d":
		return ASILD, nil
	}
	return QM, fmt.Errorf("unknown ASIL %q", s)
}

// OSKind categorizes the operating system of an ECU (Section 1.1: an RTOS
// is required wherever deterministic applications run).
type OSKind int

const (
	// OSRTOS is a real-time OS with time- and priority-based scheduling.
	OSRTOS OSKind = iota
	// OSPOSIX is a general-purpose POSIX OS without real-time guarantees.
	OSPOSIX
)

func (o OSKind) String() string {
	if o == OSRTOS {
		return "rtos"
	}
	return "posix"
}

// ECU describes one electronic control unit (or consolidated computing
// platform) in the hardware architecture.
type ECU struct {
	Name string
	// CPUMHz is the clock rate; WCETs in the model are stated at the
	// 100 MHz reference and scale linearly (WCET·100/CPUMHz).
	CPUMHz int
	// MemoryKB is usable application RAM.
	MemoryKB int
	// HasMMU reports hardware memory protection (needed for process
	// separation, Section 3.1 "Memory").
	HasMMU bool
	// HasCryptoHW reports a hardware crypto module; ECUs without one are
	// "weak" and delegate package verification to an update master
	// (Section 4.1).
	HasCryptoHW bool
	// HasGPU reports an accelerator for neural-network workloads.
	HasGPU bool
	// OS is the operating-system class running on the ECU.
	OS OSKind
	// Cost is an abstract unit cost used by design-space exploration.
	Cost int
}

// ReferenceMHz is the CPU speed at which App.WCET is stated.
const ReferenceMHz = 100

// ScaledWCET returns the execution time of work (stated at ReferenceMHz)
// on this ECU.
func (e *ECU) ScaledWCET(wcet sim.Duration) sim.Duration {
	if e.CPUMHz <= 0 {
		return wcet
	}
	return sim.Duration(int64(wcet) * ReferenceMHz / int64(e.CPUMHz))
}

// Tasks returns the scheduling tasks of the deterministic apps among
// apps, with WCETs scaled to this ECU's clock: the task set that DSE,
// admission control and schedule synthesis analyse for the ECU.
func (e *ECU) Tasks(apps []*App) []sched.Task {
	var tasks []sched.Task
	for _, a := range apps {
		if a.Kind != Deterministic {
			continue
		}
		tasks = append(tasks, sched.Task{
			Name: a.Name, Period: a.Period,
			WCET: e.ScaledWCET(a.WCET), Deadline: a.Deadline, Jitter: a.Jitter,
		})
	}
	return tasks
}

// NetworkKind identifies a communication-system technology.
type NetworkKind int

const (
	// NetCAN is a Controller Area Network bus (priority arbitration).
	NetCAN NetworkKind = iota
	// NetFlexRay is a FlexRay bus (static TDMA + dynamic minislots).
	NetFlexRay
	// NetEthernet is switched Ethernet with TSN time-aware shaping.
	NetEthernet
)

func (n NetworkKind) String() string {
	switch n {
	case NetCAN:
		return "can"
	case NetFlexRay:
		return "flexray"
	case NetEthernet:
		return "ethernet"
	}
	return fmt.Sprintf("NetworkKind(%d)", int(n))
}

// Network describes one communication system connecting a set of ECUs.
type Network struct {
	Name string
	Kind NetworkKind
	// BitsPerSecond is the raw line rate.
	BitsPerSecond int64
	// Attached lists the names of connected ECUs.
	Attached []string
}

// Attaches reports whether the network connects the named ECU.
func (n *Network) Attaches(ecu string) bool {
	for _, a := range n.Attached {
		if a == ecu {
			return true
		}
	}
	return false
}

// AppKind divides applications per the paper's Section 3.1 application
// model.
type AppKind int

const (
	// Deterministic applications have fixed periods, WCETs, deadlines and
	// jitter bounds (control loops, ADAS functions).
	Deterministic AppKind = iota
	// NonDeterministic applications have relaxed scheduling requirements
	// and bursty behaviour (infotainment).
	NonDeterministic
)

func (k AppKind) String() string {
	if k == Deterministic {
		return "da"
	}
	return "nda"
}

// App describes one application, the smallest unit of addition and update
// on the dynamic platform (Section 1.1).
type App struct {
	Name string
	Kind AppKind
	ASIL ASIL

	// Timing parameters (deterministic apps; WCET at ReferenceMHz).
	Period   sim.Duration
	WCET     sim.Duration
	Deadline sim.Duration
	// Jitter is the allowed activation-to-activation jitter bound.
	Jitter sim.Duration

	// MemoryKB is the application's memory budget.
	MemoryKB int

	// NeedsGPU / NeedsCrypto constrain placement.
	NeedsGPU    bool
	NeedsCrypto bool

	// Replicas requests fail-operational redundancy: the platform keeps
	// this many synchronized instances on distinct ECUs (Section 3.3).
	Replicas int

	// Version is the installed software version (bumped by updates).
	Version int

	// Candidates optionally restricts the ECUs this app may be mapped to
	// (design-space variants, Section 2.3). Empty means unconstrained.
	Candidates []string
}

// Utilization returns the CPU utilization of the app at the reference
// clock rate (WCET/Period), or 0 for aperiodic apps.
func (a *App) Utilization() float64 {
	if a.Period <= 0 {
		return 0
	}
	return float64(a.WCET) / float64(a.Period)
}

// Paradigm is one of the paper's Figure 3 communication paradigms.
type Paradigm int

const (
	// Event is one-way publish/subscribe notification; the producer owns
	// the interface.
	Event Paradigm = iota
	// Message is two-way request/response (RPC); the service provider
	// (consumer of requests) owns the interface.
	Message
	// Stream is one-way continuous data with inter-frame dependencies
	// (audio/video); the producer owns the interface.
	Stream
)

func (p Paradigm) String() string {
	switch p {
	case Event:
		return "event"
	case Message:
		return "message"
	case Stream:
		return "stream"
	}
	return fmt.Sprintf("Paradigm(%d)", int(p))
}

// ParseParadigm parses "event", "message" or "stream".
func ParseParadigm(s string) (Paradigm, error) {
	switch normalize(s) {
	case "event":
		return Event, nil
	case "message", "rpc":
		return Message, nil
	case "stream":
		return Stream, nil
	}
	return Event, fmt.Errorf("unknown paradigm %q", s)
}

// Interface describes one service interface between applications
// (Section 2.1): complex typed objects rather than bit-offset signals.
// Every interface has exactly one owner who controls its description and
// version.
type Interface struct {
	Name string
	// Owner is the name of the owning application (producer for Event and
	// Stream, service provider for Message).
	Owner    string
	Paradigm Paradigm

	// PayloadBytes is the (maximum) payload per transfer.
	PayloadBytes int
	// Period is the nominal publication period (Event) or request period
	// (Message) or frame interval (Stream).
	Period sim.Duration

	// Requirements (Section 2.2): latency and jitter bounds for real-time
	// interfaces, bandwidth for streaming ones.
	LatencyBound  sim.Duration
	JitterBound   sim.Duration
	BitsPerSecond int64

	// Network names the communication system carrying the interface in
	// the current deployment. Empty means ECU-local only.
	Network string

	// Version is the interface contract version.
	Version int
}

// Binding records that a client application consumes an interface.
// The set of bindings is the input to access-control extraction
// (Section 4.2).
type Binding struct {
	Client    string
	Interface string
}

// System is the complete model: hardware, software, interfaces and the
// current deployment.
type System struct {
	Name       string
	ECUs       []*ECU
	Networks   []*Network
	Apps       []*App
	Interfaces []*Interface
	Bindings   []Binding
	// Placement maps app name → ECU name. Apps absent from the map are
	// not yet deployed (their mapping is open for DSE, Section 2.3).
	Placement map[string]string
}

// NewSystem returns an empty named system.
func NewSystem(name string) *System {
	return &System{Name: name, Placement: map[string]string{}}
}

// ECU returns the named ECU, or nil.
func (s *System) ECU(name string) *ECU {
	for _, e := range s.ECUs {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Network returns the named network, or nil.
func (s *System) Network(name string) *Network {
	for _, n := range s.Networks {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// App returns the named application, or nil.
func (s *System) App(name string) *App {
	for _, a := range s.Apps {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Interface returns the named interface, or nil.
func (s *System) Interface(name string) *Interface {
	for _, i := range s.Interfaces {
		if i.Name == name {
			return i
		}
	}
	return nil
}

// AppsOn returns the applications placed on the named ECU.
func (s *System) AppsOn(ecu string) []*App {
	// Single exact-size allocation: this runs per ECU in validation,
	// DSE inner loops and platform construction.
	out := make([]*App, 0, len(s.Apps))
	for _, a := range s.Apps {
		if s.Placement[a.Name] == ecu {
			out = append(out, a)
		}
	}
	return out
}

// InterfacesOf returns the interfaces owned by the named app.
func (s *System) InterfacesOf(app string) []*Interface {
	var out []*Interface
	for _, i := range s.Interfaces {
		if i.Owner == app {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns a deep copy of the system. DSE mutates clones freely.
func (s *System) Clone() *System {
	c := NewSystem(s.Name)
	for _, e := range s.ECUs {
		e2 := *e
		c.ECUs = append(c.ECUs, &e2)
	}
	for _, n := range s.Networks {
		n2 := *n
		n2.Attached = append([]string(nil), n.Attached...)
		c.Networks = append(c.Networks, &n2)
	}
	for _, a := range s.Apps {
		a2 := *a
		a2.Candidates = append([]string(nil), a.Candidates...)
		c.Apps = append(c.Apps, &a2)
	}
	for _, i := range s.Interfaces {
		i2 := *i
		c.Interfaces = append(c.Interfaces, &i2)
	}
	c.Bindings = append([]Binding(nil), s.Bindings...)
	for k, v := range s.Placement {
		c.Placement[k] = v
	}
	return c
}

// ECUUtilization returns the summed CPU utilization of deterministic apps
// placed on the ECU, scaled to the ECU's clock.
func (s *System) ECUUtilization(ecu *ECU) float64 { return s.ECULoad(ecu).Util }

// ECUMemoryUse returns the summed memory budget of apps on the ECU in KB.
func (s *System) ECUMemoryUse(ecu *ECU) int { return s.ECULoad(ecu).MemoryKB }

// SameNetwork returns the name of a network attaching both ECUs, or "".
func (s *System) SameNetwork(ecuA, ecuB string) string {
	for _, n := range s.Networks {
		if n.Attaches(ecuA) && n.Attaches(ecuB) {
			return n.Name
		}
	}
	return ""
}
