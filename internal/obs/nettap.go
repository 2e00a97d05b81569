package obs

import (
	"strconv"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// NetTap is the canonical network.Tap: it turns frame lifecycles into
// async spans ("frame" on track "net:<name>") and maintains the
// net_frames_* counters and the net_frame_latency histogram, all keyed
// by {layer: network, iface: <net name>}.
//
// One NetTap serves all networks of one kernel (Obs.Tap); each
// network's instruments and track name are built on its first frame, so
// the steady state is a map lookup and pointer updates. The span path
// allocates trace records by design, which is why only observed kernels
// have a tap; once the trace is full, hooks still count, advance span
// IDs and feed the latency histogram, but format no args.
type NetTap struct {
	o    *Obs
	nets map[string]*netInstr

	// spanStart remembers Begin times so delivery can feed the latency
	// histogram without widening the Tap interface.
	spanStart map[uint64]sim.Time
}

// netInstr is one network's instruments and trace track.
type netInstr struct {
	track            string // "net:<name>"
	enq, deliv, lost *Counter
	lat              *Histogram
}

// newNetTap returns a tap recording into o.
func newNetTap(o *Obs) *NetTap {
	return &NetTap{o: o, nets: map[string]*netInstr{}, spanStart: map[uint64]sim.Time{}}
}

func (nt *NetTap) net(name string) *netInstr {
	n, ok := nt.nets[name]
	if !ok {
		l := Labels{Layer: "network", Iface: name}
		n = &netInstr{
			track: "net:" + name,
			enq:   nt.o.M.Counter("net_frames_enqueued", l),
			deliv: nt.o.M.Counter("net_frames_delivered", l),
			lost:  nt.o.M.Counter("net_frames_lost", l),
			lat:   nt.o.M.Histogram("net_frame_latency", l),
		}
		nt.nets[name] = n
	}
	return n
}

// detail returns prefix+s when the trace would keep the record, and ""
// when it would drop it.
func (nt *NetTap) detail(prefix, s string) string {
	if !nt.o.T.retains() {
		return ""
	}
	return prefix + s
}

func frameArgs(msg *network.Message) string {
	dst := msg.Dst
	if dst == "" {
		dst = "*"
	}
	return "id=0x" + strconv.FormatUint(uint64(msg.ID), 16) +
		" " + msg.Src + "->" + dst +
		" class=" + msg.Class.String() +
		" bytes=" + strconv.Itoa(msg.Bytes)
}

// FrameEnqueued implements network.Tap.
func (nt *NetTap) FrameEnqueued(net string, msg *network.Message, at sim.Time) uint64 {
	n := nt.net(net)
	n.enq.Inc()
	args := ""
	if nt.o.T.retains() {
		args = frameArgs(msg)
	}
	s := nt.o.T.Begin("net", "frame", n.track, args)
	if s.Valid() {
		nt.spanStart[s.id] = at
	}
	return s.id
}

// FrameTxStart implements network.Tap.
func (nt *NetTap) FrameTxStart(net string, span uint64, at sim.Time) {
	if span == 0 {
		return
	}
	nt.o.T.Instant("net", "tx-start", nt.net(net).track, "")
}

// FrameDelivered implements network.Tap.
func (nt *NetTap) FrameDelivered(net string, span uint64, msg *network.Message, station string, at sim.Time) {
	n := nt.net(net)
	n.deliv.Inc()
	if start, ok := nt.spanStart[span]; ok {
		n.lat.Observe(at.Sub(start))
		delete(nt.spanStart, span)
		nt.o.T.End("net", "frame", n.track, Span{id: span}, nt.detail("delivered ", station))
	} else {
		// Broadcast: later deliveries after the span closed.
		nt.o.T.Instant("net", "frame-copy", n.track, nt.detail("delivered ", station))
	}
}

// FrameLost implements network.Tap.
func (nt *NetTap) FrameLost(net string, span uint64, msg *network.Message, reason string, at sim.Time) {
	n := nt.net(net)
	n.lost.Inc()
	if _, ok := nt.spanStart[span]; ok {
		delete(nt.spanStart, span)
		nt.o.T.End("net", "frame", n.track, Span{id: span}, nt.detail("lost: ", reason))
	} else {
		nt.o.T.Instant("net", "frame-lost", n.track, reason)
	}
}
