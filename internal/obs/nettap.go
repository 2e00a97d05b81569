package obs

import (
	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// NetTap is the canonical network.Tap: it turns frame lifecycles into
// async spans ("frame" on track "net:<name>") and maintains the
// net_frames_* counters and the net_frame_latency histogram, all keyed
// by {layer: network, iface: <net name>}.
//
// One NetTap serves all networks of one kernel (Obs.Tap); each
// network's instruments and track are built on its first frame, so the
// steady state is a string compare (or a map lookup when frames of
// several networks interleave) and pointer updates. A frame's records
// hold its ID, class, size and interned station names; their text is
// formatted only when the trace is rendered. Once the trace is full,
// hooks still count, advance span IDs and feed the latency histogram,
// but intern nothing.
type NetTap struct {
	o    *Obs
	nets map[string]*netInstr
	// lastName / last are the network the previous hook resolved. A
	// network passes its own name string to every hook, so the compare
	// is usually a pointer compare.
	lastName string
	last     *netInstr

	// spanStart remembers Begin times so delivery can feed the latency
	// histogram without widening the Tap interface.
	spanStart map[uint64]sim.Time

	// The trace IDs of the tap's category and record names.
	cat, frame, txStart, frameCopy, frameLost Ref
}

// netInstr is one network's instruments and trace track.
type netInstr struct {
	track            Ref // "net:<name>"
	enq, deliv, lost *Counter
	lat              *Histogram
}

// newNetTap returns a tap recording into o.
func newNetTap(o *Obs) *NetTap {
	t := o.T
	return &NetTap{o: o, nets: map[string]*netInstr{}, spanStart: map[uint64]sim.Time{},
		cat: t.intern("net"), frame: t.intern("frame"), txStart: t.intern("tx-start"),
		frameCopy: t.intern("frame-copy"), frameLost: t.intern("frame-lost")}
}

func (nt *NetTap) net(name string) *netInstr {
	if nt.last != nil && name == nt.lastName {
		return nt.last
	}
	n, ok := nt.nets[name]
	if !ok {
		l := Labels{Layer: "network", Iface: name}
		n = &netInstr{
			track: nt.o.T.intern("net:" + name),
			enq:   nt.o.M.Counter("net_frames_enqueued", l),
			deliv: nt.o.M.Counter("net_frames_delivered", l),
			lost:  nt.o.M.Counter("net_frames_lost", l),
			lat:   nt.o.M.Histogram("net_frame_latency", l),
		}
		nt.nets[name] = n
	}
	nt.lastName, nt.last = name, n
	return n
}

// on fills r, unless the trace was full, as the named record on n's
// track with detail s in form f.
func (nt *NetTap) on(r *record, n *netInstr, name Ref, f form, s string) {
	if r == nil {
		return
	}
	r.cat, r.name, r.track = nt.cat, name, n.track
	r.form, r.s[0] = f, nt.o.T.intern(s)
}

// FrameEnqueued implements network.Tap.
func (nt *NetTap) FrameEnqueued(net string, msg *network.Message, at sim.Time) uint64 {
	n := nt.net(net)
	n.enq.Inc()
	t := nt.o.T
	s, r := t.begin()
	if r != nil {
		dst := msg.Dst
		if dst == "" {
			dst = "*"
		}
		r.cat, r.name, r.track = nt.cat, nt.frame, n.track
		r.form = formFrame
		r.s[0], r.s[1] = t.intern(msg.Src), t.intern(dst)
		r.i = [3]int64{int64(msg.ID), int64(msg.Class), int64(msg.Bytes)}
	}
	nt.spanStart[s.id] = at
	return s.id
}

// FrameTxStart implements network.Tap.
func (nt *NetTap) FrameTxStart(net string, span uint64, at sim.Time) {
	if span == 0 {
		return
	}
	nt.on(nt.o.T.instant(), nt.net(net), nt.txStart, formPlain, "")
}

// FrameDelivered implements network.Tap.
func (nt *NetTap) FrameDelivered(net string, span uint64, msg *network.Message, station string, at sim.Time) {
	n := nt.net(net)
	n.deliv.Inc()
	if start, ok := nt.spanStart[span]; ok {
		n.lat.Observe(at.Sub(start))
		delete(nt.spanStart, span)
		nt.on(nt.o.T.end(Span{id: span}), n, nt.frame, formDelivered, station)
	} else {
		// Broadcast: later deliveries after the span closed.
		nt.on(nt.o.T.instant(), n, nt.frameCopy, formDelivered, station)
	}
}

// FrameLost implements network.Tap.
func (nt *NetTap) FrameLost(net string, span uint64, msg *network.Message, reason string, at sim.Time) {
	n := nt.net(net)
	n.lost.Inc()
	if _, ok := nt.spanStart[span]; ok {
		delete(nt.spanStart, span)
		nt.on(nt.o.T.end(Span{id: span}), n, nt.frame, formLost, reason)
	} else {
		nt.on(nt.o.T.instant(), n, nt.frameLost, formPlain, reason)
	}
}
