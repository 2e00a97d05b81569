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
// One NetTap serves all networks of one kernel (Obs.Tap); per-network
// instruments are cached in small maps that are only touched on the
// first frame of each network (steady state is pointer updates only for
// counters; the span path allocates trace records by design, which is
// why only observed kernels have a tap).
type NetTap struct {
	o *Obs

	enq   map[string]*Counter
	deliv map[string]*Counter
	lost  map[string]*Counter
	lat   map[string]*Histogram

	// spanStart remembers Begin times so delivery can feed the latency
	// histogram without widening the Tap interface.
	spanStart map[uint64]sim.Time
}

// newNetTap returns a tap recording into o.
func newNetTap(o *Obs) *NetTap {
	return &NetTap{
		o:         o,
		enq:       map[string]*Counter{},
		deliv:     map[string]*Counter{},
		lost:      map[string]*Counter{},
		lat:       map[string]*Histogram{},
		spanStart: map[uint64]sim.Time{},
	}
}

func (nt *NetTap) counters(net string) (enq, deliv, lost *Counter, lat *Histogram) {
	enq, ok := nt.enq[net]
	if !ok {
		l := Labels{Layer: "network", Iface: net}
		enq = nt.o.M.Counter("net_frames_enqueued", l)
		nt.enq[net] = enq
		nt.deliv[net] = nt.o.M.Counter("net_frames_delivered", l)
		nt.lost[net] = nt.o.M.Counter("net_frames_lost", l)
		nt.lat[net] = nt.o.M.Histogram("net_frame_latency", l)
	}
	return enq, nt.deliv[net], nt.lost[net], nt.lat[net]
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
	enq, _, _, _ := nt.counters(net)
	enq.Inc()
	s := nt.o.T.Begin("net", "frame", "net:"+net, frameArgs(msg))
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
	nt.o.T.Instant("net", "tx-start", "net:"+net, "")
}

// FrameDelivered implements network.Tap.
func (nt *NetTap) FrameDelivered(net string, span uint64, msg *network.Message, station string, at sim.Time) {
	_, deliv, _, lat := nt.counters(net)
	deliv.Inc()
	if start, ok := nt.spanStart[span]; ok {
		lat.Observe(at.Sub(start))
		delete(nt.spanStart, span)
		nt.o.T.End("net", "frame", "net:"+net, Span{id: span}, "delivered "+station)
	} else {
		// Broadcast: later deliveries after the span closed.
		nt.o.T.Instant("net", "frame-copy", "net:"+net, "delivered "+station)
	}
}

// FrameLost implements network.Tap.
func (nt *NetTap) FrameLost(net string, span uint64, msg *network.Message, reason string, at sim.Time) {
	_, _, lost, _ := nt.counters(net)
	lost.Inc()
	if _, ok := nt.spanStart[span]; ok {
		delete(nt.spanStart, span)
		nt.o.T.End("net", "frame", "net:"+net, Span{id: span}, "lost: "+reason)
	} else {
		nt.o.T.Instant("net", "frame-lost", "net:"+net, reason)
	}
}
