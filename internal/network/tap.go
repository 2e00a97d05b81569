package network

import "dynaplat/internal/sim"

// Tap observes the lifecycle of frames inside a network implementation.
// CAN, FlexRay, TSN and the fault layer take their tap from their
// kernel's observer when constructed (TapOf) and invoke it behind nil
// checks, so an untapped network pays only a pointer comparison per
// event (no allocation, no call).
//
// The uint64 returned by FrameEnqueued is an opaque span handle the
// network threads through the frame's life and hands back on TxStart /
// Delivered / Lost. Implementations that do not track spans return 0;
// networks must tolerate (and pass back) 0.
//
// Tap is defined here — rather than in internal/obs — so that the
// network technologies do not depend on the observability layer; obs
// provides the canonical implementation (obs.NetTap).
type Tap interface {
	// FrameEnqueued fires when the sender hands the frame to the medium.
	FrameEnqueued(net string, msg *Message, at sim.Time) uint64
	// FrameTxStart fires when the frame wins arbitration / its gate
	// opens and serialization onto the wire begins. Best-effort: some
	// technologies fold it into delivery.
	FrameTxStart(net string, span uint64, at sim.Time)
	// FrameDelivered fires once per receiving station.
	FrameDelivered(net string, span uint64, msg *Message, station string, at sim.Time)
	// FrameLost fires when the frame is dropped (queue overflow, fault
	// injection, no receiver). reason is a short stable token such as
	// "overflow", "loss", "partition", "no-receiver".
	FrameLost(net string, span uint64, msg *Message, reason string, at sim.Time)
}

// TapOf returns the frame tap of k's observer, or nil when k is not
// observed or its observer records no frames. An observer records frames
// by implementing Tap() Tap; obs.Obs does, with one tap shared by every
// network of the kernel.
func TapOf(k *sim.Kernel) Tap {
	if o, ok := k.Observer().(interface{ Tap() Tap }); ok {
		return o.Tap()
	}
	return nil
}
