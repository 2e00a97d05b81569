package tsn

import (
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

func TestCBSConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig("x"))
	if err := n.EnableCBS(CBSConfig{Queue: -1, IdleSlopeBps: 1000}); err == nil {
		t.Error("negative queue accepted")
	}
	if err := n.EnableCBS(CBSConfig{Queue: 8, IdleSlopeBps: 1000}); err == nil {
		t.Error("out-of-range queue accepted")
	}
	if err := n.EnableCBS(CBSConfig{Queue: 5, IdleSlopeBps: 0}); err == nil {
		t.Error("zero slope accepted")
	}
	if err := n.EnableCBS(CBSConfig{Queue: 5, IdleSlopeBps: 100_000_000}); err == nil {
		t.Error("slope ≥ line rate accepted")
	}
	if err := n.EnableCBS(CBSConfig{Queue: 5, IdleSlopeBps: 10_000_000}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// throughput measures delivered priority-class bits per second with and
// without shaping under saturation.
func cbsThroughput(t *testing.T, idleSlope int64) float64 {
	t.Helper()
	k := sim.NewKernel(2)
	n := New(k, DefaultConfig("av"))
	if idleSlope > 0 {
		if err := n.EnableCBS(CBSConfig{Queue: QueuePriority, IdleSlopeBps: idleSlope}); err != nil {
			t.Fatal(err)
		}
	}
	n.Attach("cam", func(network.Delivery) {})
	var bits int64
	n.Attach("sink", func(d network.Delivery) {
		if d.Msg.Class == network.ClassPriority {
			bits += int64(d.Msg.Bytes) * 8
		}
	})
	// Saturating AV source: 1400B frames as fast as possible.
	k.Every(0, 100*sim.Microsecond, func() {
		n.Send(network.Message{Class: network.ClassPriority, Src: "cam",
			Dst: "sink", Bytes: 1400})
	})
	k.RunUntil(sim.Time(sim.Second))
	return float64(bits)
}

func TestCBSThrottlesToIdleSlope(t *testing.T) {
	unshapedBps := cbsThroughput(t, 0)
	shapedBps := cbsThroughput(t, 20_000_000)
	if unshapedBps < 80e6 {
		t.Fatalf("unshaped throughput %.0f bps implausibly low", unshapedBps)
	}
	// The shaper reserves 20 Mbps of *wire* bandwidth (payload+overhead),
	// so payload goodput lands a bit below the slope.
	if shapedBps > 21e6 {
		t.Errorf("shaped throughput %.0f bps exceeds 20Mbps reservation", shapedBps)
	}
	if shapedBps < 15e6 {
		t.Errorf("shaped throughput %.0f bps far below reservation", shapedBps)
	}
}

func TestCBSLeavesBandwidthForBulk(t *testing.T) {
	// With the AV class shaped to 20 Mbps, a saturating bulk source on a
	// lower queue must get most of the rest — without shaping, strict
	// priority starves it.
	run := func(shape bool) (bulkBits int64) {
		k := sim.NewKernel(3)
		n := New(k, DefaultConfig("av"))
		if shape {
			n.EnableCBS(CBSConfig{Queue: QueuePriority, IdleSlopeBps: 20_000_000})
		}
		n.Attach("cam", func(network.Delivery) {})
		n.Attach("data", func(network.Delivery) {})
		n.Attach("sink", func(d network.Delivery) {
			if d.Msg.Class == network.ClassBulk {
				bulkBits += int64(d.Msg.Bytes) * 8
			}
		})
		k.Every(0, 100*sim.Microsecond, func() {
			n.Send(network.Message{Class: network.ClassPriority, Src: "cam",
				Dst: "sink", Bytes: 1400})
			n.Send(network.Message{Class: network.ClassBulk, Src: "data",
				Dst: "sink", Bytes: 1400})
		})
		k.RunUntil(sim.Time(sim.Second))
		return bulkBits
	}
	starved := run(false)
	shaped := run(true)
	if shaped < 4*starved {
		t.Errorf("bulk with shaping %.1fMbps !≫ without %.1fMbps",
			float64(shaped)/1e6, float64(starved)/1e6)
	}
	if shaped < 50e6 {
		t.Errorf("bulk only got %.1f Mbps beside a 20Mbps reservation",
			float64(shaped)/1e6)
	}
}

func TestCBSControlClassUnaffected(t *testing.T) {
	// Shaping the AV queue must not delay the control class above it.
	k := sim.NewKernel(4)
	n := New(k, DefaultConfig("av"))
	n.EnableCBS(CBSConfig{Queue: QueuePriority, IdleSlopeBps: 20_000_000})
	n.Attach("cam", func(network.Delivery) {})
	n.Attach("ecu", func(network.Delivery) {})
	n.Attach("sink", func(network.Delivery) {})
	k.Every(0, 100*sim.Microsecond, func() {
		n.Send(network.Message{Class: network.ClassPriority, Src: "cam",
			Dst: "sink", Bytes: 1400})
	})
	k.Every(sim.Time(50*sim.Microsecond), 10*sim.Millisecond, func() {
		n.Send(network.Message{Class: network.ClassControl, Src: "ecu",
			Dst: "sink", Bytes: 64})
	})
	k.RunUntil(sim.Time(sim.Second))
	p100 := n.Latency(network.ClassControl).MaxDuration()
	// Bounded by one MTU of blocking plus its own wire time.
	if p100 > 300*sim.Microsecond {
		t.Errorf("control p100 = %v beside shaped AV", p100)
	}
}
