// Package tsn simulates switched Ethernet with Time-Sensitive Networking
// shaping: a star-topology switch whose egress ports run 802.1Qbv
// time-aware gates over eight strict-priority queues, with guard-banding
// (a frame only starts if it completes before its gate closes).
//
// This is the upcoming mixed-criticality Ethernet scheme the paper's
// Section 5.3 describes: deterministic traffic rides time-triggered gate
// windows; non-deterministic traffic uses priority queues in the remaining
// windows and cannot interfere.
package tsn

import (
	"fmt"
	"slices"
	"strings"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// NumQueues is the 802.1Q priority-queue count per egress port.
const NumQueues = 8

// Queue assignment for the technology-independent traffic classes.
const (
	QueueControl  = 7
	QueuePriority = 5
	QueueBulk     = 1
)

// QueueFor maps a traffic class to its priority queue.
func QueueFor(c network.Class) int {
	switch c {
	case network.ClassControl:
		return QueueControl
	case network.ClassPriority:
		return QueuePriority
	default:
		return QueueBulk
	}
}

// GateEntry is one interval of a gate control list: the set of queues
// whose gates are open (bitmask, bit q = queue q) for Dur.
type GateEntry struct {
	OpenMask uint8
	Dur      sim.Duration
}

// AllOpen is the mask with every gate open.
const AllOpen uint8 = 0xFF

// Config parameterizes a TSN network.
type Config struct {
	Name string
	// BitsPerSecond is the line rate of every link (default 100 Mbps).
	BitsPerSecond int64
	// MaxFrameBytes is the MTU payload; larger sends panic (the SOA
	// layer segments). Default 1500.
	MaxFrameBytes int
	// FrameOverheadBytes models Ethernet header+FCS+IFG (default 42).
	FrameOverheadBytes int
	// ProcDelay is the switch processing/propagation delay per hop.
	ProcDelay sim.Duration
	// GCL is the cyclic gate control list applied at every egress port.
	// Empty means all gates always open (plain strict priority).
	GCL []GateEntry
}

// DefaultConfig returns a 100 Mbps network with no time gates.
func DefaultConfig(name string) Config {
	return Config{
		Name:               name,
		BitsPerSecond:      100_000_000,
		MaxFrameBytes:      1500,
		FrameOverheadBytes: 42,
		ProcDelay:          2 * sim.Microsecond,
	}
}

// ControlGCL builds a canonical two-window GCL: a window of ctrlWin where
// only the control gate is open, then a window of restWin where every
// other gate is open. Ablation A4 sweeps these.
func ControlGCL(ctrlWin, restWin sim.Duration) []GateEntry {
	return []GateEntry{
		{OpenMask: 1 << QueueControl, Dur: ctrlWin},
		{OpenMask: AllOpen &^ (1 << QueueControl), Dur: restWin},
	}
}

// Network is a simulated single-switch TSN network.
//
// A frame's trip allocates nothing in steady state: one pooled record
// carries it from Send over the uplink, the switch and the egress port
// (broadcasts take one pooled copy per egress port), every hop is a
// pre-bound AfterCall event carrying the record, and each queue is a
// network.FIFO that reuses its backing array. Send and a unicast
// forward each look the station up once; the egress port delivers to
// its own station's receiver.
type Network struct {
	cfg      Config
	k        *sim.Kernel
	stations map[string]*station
	// order lists the attached stations in name order for broadcasts. A
	// new station replaces the slice (never edits it in place), so a
	// broadcast in progress keeps walking the list it started with.
	order []*station

	// Stats
	Forwarded int64
	// latency summarises end-to-end latency per traffic class.
	latency map[network.Class]*sim.Stats

	// cbsTemplates are applied to egress ports created after EnableCBS.
	cbsTemplates []CBSConfig

	pool      network.Pool[frame]
	forwardFn func(any) // n.forward, bound once in New
	txDoneFn  func(any) // n.txDone, bound once in New

	tap network.Tap // the kernel's frame tap (network.TapOf); nil unobserved
}

// New creates a TSN network on the kernel.
func New(k *sim.Kernel, cfg Config) *Network {
	if cfg.BitsPerSecond <= 0 {
		cfg.BitsPerSecond = 100_000_000
	}
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = 1500
	}
	if cfg.FrameOverheadBytes < 0 {
		cfg.FrameOverheadBytes = 0
	}
	var cycle sim.Duration
	for _, e := range cfg.GCL {
		if e.Dur <= 0 {
			panic("tsn: GCL entry with non-positive duration")
		}
		cycle += e.Dur
	}
	n := &Network{
		cfg:      cfg,
		k:        k,
		stations: map[string]*station{},
		latency:  map[network.Class]*sim.Stats{},
		tap:      network.TapOf(k),
	}
	n.forwardFn = n.forward
	n.txDoneFn = n.txDone
	return n
}

// Name implements network.Network.
func (n *Network) Name() string { return n.cfg.Name }

// station is one attached station: its receiver and its two links.
type station struct {
	name string
	rx   network.Receiver
	// uplink serializes station→switch; egress serializes switch→station
	// under the GCL and delivers to rx.
	uplink, egress *link
}

// Attach implements network.Network. Attaching a station again gives it
// fresh links and replaces its receiver; frames still on its old egress
// port are delivered to the new receiver.
func (n *Network) Attach(name string, rx network.Receiver) {
	st, ok := n.stations[name]
	if !ok {
		st = &station{name: name}
		n.stations[name] = st
		i, _ := slices.BinarySearchFunc(n.order, name, func(s *station, name string) int {
			return strings.Compare(s.name, name)
		})
		n.order = slices.Concat(n.order[:i], []*station{st}, n.order[i:])
	}
	st.rx = rx
	// Uplinks are ungated FIFO; egress ports run the GCL and shapers.
	st.uplink = newLink(n, nil, nil)
	st.egress = newLink(n, n.cfg.GCL, st)
	for _, cfg := range n.cbsTemplates {
		st.egress.enableCBS(cfg)
	}
}

// Send implements network.Network.
func (n *Network) Send(msg network.Message) {
	src, ok := n.stations[msg.Src]
	if !ok {
		panic(fmt.Sprintf("tsn: source %q not attached to %s", msg.Src, n.cfg.Name))
	}
	if msg.Bytes > n.cfg.MaxFrameBytes {
		panic(fmt.Sprintf("tsn: frame %dB exceeds MTU %dB", msg.Bytes, n.cfg.MaxFrameBytes))
	}
	if msg.Bytes < 0 {
		panic("tsn: negative payload size")
	}
	f := n.pool.Get()
	f.msg = msg
	f.enqueued = n.k.Now()
	if n.tap != nil {
		f.span = n.tap.FrameEnqueued(n.cfg.Name, &f.msg, f.enqueued)
	}
	src.uplink.enqueue(f)
}

// forward fans the frame record arg, arrived at the switch, out to its
// egress port(s). A unicast record travels on; a broadcast is copied
// once per destination port and the original recycled.
func (n *Network) forward(arg any) {
	f := arg.(*frame)
	if f.msg.Dst != "" {
		if st, ok := n.stations[f.msg.Dst]; ok {
			st.egress.enqueue(f)
			return
		}
		if n.tap != nil {
			n.tap.FrameLost(n.cfg.Name, f.span, &f.msg, "no-receiver", n.k.Now())
		}
		n.pool.Put(f)
		return
	}
	for _, st := range n.order {
		if st.name == f.msg.Src {
			continue
		}
		g := n.pool.Get()
		*g = *f
		g.msg.Dst = st.name
		st.egress.enqueue(g)
	}
	n.pool.Put(f)
}

// deliver hands a frame that finished on the egress port of st to st's
// receiver.
func (n *Network) deliver(st *station, f *frame) {
	n.Forwarded++
	d := network.Delivery{Msg: f.msg, Enqueued: f.enqueued, Delivered: n.k.Now()}
	s := n.latency[f.msg.Class]
	if s == nil {
		s = &sim.Stats{}
		n.latency[f.msg.Class] = s
	}
	s.AddDuration(d.Latency())
	// A station named "" cannot be addressed: a broadcast copy to it is
	// lost.
	if f.msg.Dst != "" {
		if n.tap != nil {
			n.tap.FrameDelivered(n.cfg.Name, f.span, &f.msg, f.msg.Dst, n.k.Now())
		}
		st.rx(d)
	} else if n.tap != nil {
		n.tap.FrameLost(n.cfg.Name, f.span, &f.msg, "no-receiver", n.k.Now())
	}
}

// Latency returns the recorded latency statistics for a class (may be empty).
func (n *Network) Latency(c network.Class) *sim.Stats {
	if s := n.latency[c]; s != nil {
		return s
	}
	return &sim.Stats{}
}

// txTime returns wire time for a payload including Ethernet overhead.
func (n *Network) txTime(bytes int) sim.Duration {
	return network.TxTime(bytes+n.cfg.FrameOverheadBytes, n.cfg.BitsPerSecond)
}

// frame is one frame's pooled record. It returns to the pool after its
// last receiver returns (or when it is dropped), never earlier, so a
// receiver that sends from inside its callback gets a different record.
type frame struct {
	msg      network.Message
	enqueued sim.Time
	span     uint64 // observability span handle; broadcast copies inherit it
	link     *link  // the link serializing the frame
}

// link is one serialized output (uplink or gated egress port).
type link struct {
	n      *Network
	gcl    []GateEntry
	cycle  sim.Duration
	queues [NumQueues]network.FIFO[*frame]
	busy   bool
	retry  sim.EventRef
	// to is the station of a switch→station port: a frame that finishes
	// there is delivered to it. On an uplink (nil) it hops to the switch.
	to      *station
	retryFn sim.Handler // l.trySend, bound on the first gate or shaper wait
	// cbs holds per-queue credit-based shaper state, nil for an unshaped
	// queue (see cbs.go).
	cbs [NumQueues]*cbsState
}

func newLink(n *Network, gcl []GateEntry, to *station) *link {
	l := &link{n: n, gcl: gcl, to: to}
	for _, e := range gcl {
		l.cycle += e.Dur
	}
	return l
}

func (l *link) enqueue(f *frame) {
	l.queues[QueueFor(f.msg.Class)].Push(f)
	l.trySend()
}

// txDone ends the serialization of the frame record arg on its link: on
// an uplink the frame reaches the switch after ProcDelay; on an egress
// port it is delivered and its record recycled. Then the link starts its
// next frame.
func (n *Network) txDone(arg any) {
	f := arg.(*frame)
	l := f.link
	l.busy = false
	if l.to != nil {
		n.deliver(l.to, f)
		n.pool.Put(f)
	} else {
		n.k.AfterCall(n.cfg.ProcDelay, n.forwardFn, f)
	}
	l.trySend()
}

// gateState reports whether queue q's gate is open at t and when the
// state next changes (zero Time means never — the state is constant).
func (l *link) gateState(q int, t sim.Time) (open bool, next sim.Time) {
	if len(l.gcl) == 0 {
		return true, 0
	}
	off := sim.Duration(t) % l.cycle
	// Locate the entry containing off.
	var acc sim.Duration
	idx := 0
	for i, e := range l.gcl {
		if off < acc+e.Dur {
			idx = i
			break
		}
		acc += e.Dur
	}
	bit := uint8(1) << q
	cur := l.gcl[idx].OpenMask&bit != 0
	// Walk forward to find the next flip, at most one full cycle.
	boundary := acc + l.gcl[idx].Dur // offset of end of current entry
	for i := 1; i <= len(l.gcl); i++ {
		e := l.gcl[(idx+i)%len(l.gcl)]
		if (e.OpenMask&bit != 0) != cur {
			return cur, t.Add(boundary - off)
		}
		boundary += e.Dur
	}
	return cur, 0 // constant for this queue
}

// trySend starts the best eligible frame, or arms a retry at the next
// gate change if something is pending but blocked.
func (l *link) trySend() {
	if l.busy {
		return
	}
	now := l.n.k.Now()
	var wake sim.Time
	for q := NumQueues - 1; q >= 0; q-- {
		if l.queues[q].Len() == 0 {
			continue
		}
		open, next := l.gateState(q, now)
		if !open {
			if next != 0 && (wake == 0 || next < wake) {
				wake = next
			}
			continue
		}
		// Credit-based shaping: a shaped queue in credit deficit waits.
		eligible, cbsWake := l.cbsEligible(q, now)
		if !eligible {
			if cbsWake != 0 && (wake == 0 || cbsWake < wake) {
				wake = cbsWake
			}
			continue
		}
		f := l.queues[q].Peek()
		tx := l.n.txTime(f.msg.Bytes)
		// Guard band: the frame must complete before the gate closes.
		if next != 0 && now.Add(tx) > next {
			if wake == 0 || next < wake {
				wake = next
			}
			continue
		}
		l.queues[q].Pop()
		l.cbsCharge(q, tx, l.n.cfg.BitsPerSecond)
		if l.n.tap != nil {
			l.n.tap.FrameTxStart(l.n.cfg.Name, f.span, now)
		}
		l.busy = true
		f.link = l
		l.n.k.AfterCall(tx, l.n.txDoneFn, f)
		return
	}
	if wake != 0 {
		if l.retry.Pending() {
			l.retry.Cancel()
		}
		if l.retryFn == nil {
			l.retryFn = l.trySend
		}
		l.retry = l.n.k.AtPriority(wake, sim.PriorityClock, l.retryFn)
	}
}
