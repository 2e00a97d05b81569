package soa

import (
	"fmt"

	"dynaplat/internal/sim"
)

// Stream implements the third Figure 3 paradigm: one-way continuous data
// whose frames depend on their predecessors. A receiver can only decode
// frame n once every frame since the last key frame has arrived, so the
// middleware tracks continuity and decode stalls.
type Stream struct {
	ep    *Endpoint
	iface string
	seq   uint32
	// KeyInterval marks every k-th frame independent (a key frame);
	// 0 means only frame 0 is a key frame.
	KeyInterval uint32
}

// OpenStream starts publishing a stream on an interface the endpoint
// offers. keyInterval sets the key-frame cadence.
func (e *Endpoint) OpenStream(iface string, keyInterval uint32) *Stream {
	svc, ok := e.m.svcs[iface]
	if !ok || svc.provider != e {
		panic(fmt.Sprintf("soa: %s streams unoffered interface %s", e.app, iface))
	}
	return &Stream{ep: e, iface: iface, KeyInterval: keyInterval}
}

// SendFrame publishes the next stream frame to all subscribers.
func (s *Stream) SendFrame(bytes int, payload any) {
	s.ep.publish(s.iface, s.seq, bytes, payload)
	s.seq++
}

// Seq returns the next frame sequence number.
func (s *Stream) Seq() uint32 { return s.seq }

// StreamReceiver reassembles a frame sequence on the consumer side and
// accounts for decode stalls caused by inter-frame dependencies.
type StreamReceiver struct {
	KeyInterval uint32

	next sim.Time // last delivery time, for inter-frame gap
	seen uint32   // next expected sequence number
	// Frames counts decodable frames; Stalled counts frames that arrived
	// with a predecessor missing (undecodable until the next key frame).
	Frames  int64
	Stalled int64
	// InterFrame samples the gap between consecutive deliveries — the
	// stream-jitter measure used in experiment E2.
	InterFrame sim.Stats
	stalling   bool
}

// Consume processes one delivered stream event.
func (r *StreamReceiver) Consume(ev Event) {
	if r.next != 0 {
		r.InterFrame.AddDuration(ev.Delivered.Sub(r.next))
	}
	r.next = ev.Delivered
	isKey := ev.Seq == 0 || (r.KeyInterval > 0 && ev.Seq%r.KeyInterval == 0)
	switch {
	case isKey:
		// Key frames always decode and resynchronize the stream.
		r.stalling = false
		r.seen = ev.Seq + 1
		r.Frames++
	case ev.Seq == r.seen && !r.stalling:
		r.seen = ev.Seq + 1
		r.Frames++
	default:
		// Dependency broken: undecodable until the next key frame.
		r.stalling = true
		r.seen = ev.Seq + 1
		r.Stalled++
	}
}
