package tsn

import (
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

func plainNet(k *sim.Kernel) *Network {
	n := New(k, DefaultConfig("backbone"))
	for _, s := range []string{"cam", "ecu", "sink"} {
		n.Attach(s, func(network.Delivery) {})
	}
	return n
}

func TestSingleFrameLatency(t *testing.T) {
	k := sim.NewKernel(1)
	n := plainNet(k)
	var got []network.Delivery
	n.Attach("sink", func(d network.Delivery) { got = append(got, d) })
	n.Send(network.Message{Class: network.ClassControl, Src: "ecu", Dst: "sink", Bytes: 100})
	k.Run()
	if len(got) != 1 {
		t.Fatalf("deliveries = %d", len(got))
	}
	// (100+42)B = 1136 bits at 100Mbps = 11.36us per hop; two hops plus
	// 2us processing: 11.36*2 + 2 = 24.72us → integer ns rounding.
	want := 2*network.TxTime(142, 100_000_000) + 2*sim.Microsecond
	if lat := got[0].Latency(); lat != want {
		t.Errorf("latency = %v, want %v", lat, want)
	}
}

func TestStrictPriority(t *testing.T) {
	// With both classes queued at the same egress port at the same time,
	// control frames must all leave before bulk frames.
	k := sim.NewKernel(1)
	n := plainNet(k)
	var order []network.Class
	n.Attach("sink", func(d network.Delivery) { order = append(order, d.Msg.Class) })
	k.At(0, func() {
		for i := 0; i < 3; i++ {
			n.Send(network.Message{Class: network.ClassBulk, Src: "cam", Dst: "sink", Bytes: 1500})
		}
		for i := 0; i < 3; i++ {
			n.Send(network.Message{Class: network.ClassControl, Src: "ecu", Dst: "sink", Bytes: 64})
		}
	})
	k.Run()
	if len(order) != 6 {
		t.Fatalf("deliveries = %d", len(order))
	}
	// The first bulk frame may already occupy the port (non-preemptive),
	// but after that all control frames must precede remaining bulk.
	ctrlSeen := 0
	for i, c := range order {
		if c == network.ClassControl {
			ctrlSeen++
		} else if i > 0 && ctrlSeen < 3 && i > 1 {
			t.Fatalf("bulk before all control at %d: %v", i, order)
		}
	}
}

func TestGateBlocksBulkDuringControlWindow(t *testing.T) {
	// GCL: 100us control-only, 400us everything else.
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tt")
	cfg.GCL = ControlGCL(100*sim.Microsecond, 400*sim.Microsecond)
	n := New(k, cfg)
	n.Attach("cam", func(network.Delivery) {})
	var bulkAt sim.Time
	n.Attach("sink", func(d network.Delivery) {
		if d.Msg.Class == network.ClassBulk {
			bulkAt = d.Delivered
		}
	})
	// Bulk frame enqueued at t=0, while only the control gate is open:
	// it must wait for the second window at 100us.
	n.Send(network.Message{Class: network.ClassBulk, Src: "cam", Dst: "sink", Bytes: 64})
	k.Run()
	if bulkAt < sim.Time(100*sim.Microsecond) {
		t.Errorf("bulk egressed at %v, inside the control-only window", bulkAt)
	}
}

func TestGuardBandPreventsOverrun(t *testing.T) {
	// A frame that cannot finish before its gate closes must wait for the
	// next window rather than straddle the boundary.
	k := sim.NewKernel(1)
	cfg := DefaultConfig("tt")
	// Bulk window 50us: a 1500B frame needs 123.36us → never fits the
	// first window; give it a 200us second bulk window via a 3-entry GCL.
	cfg.GCL = []GateEntry{
		{OpenMask: 1 << QueueBulk, Dur: 50 * sim.Microsecond},
		{OpenMask: 1 << QueueControl, Dur: 100 * sim.Microsecond},
		{OpenMask: 1 << QueueBulk, Dur: 200 * sim.Microsecond},
	}
	n := New(k, cfg)
	n.Attach("cam", func(network.Delivery) {})
	var done sim.Time
	n.Attach("sink", func(d network.Delivery) { done = d.Delivered })
	n.Send(network.Message{Class: network.ClassBulk, Src: "cam", Dst: "sink", Bytes: 1500})
	k.Run()
	// Uplink (ungated) takes 123.36us+; egress can only start in the
	// third window at 150us.
	if done < sim.Time(150*sim.Microsecond) {
		t.Errorf("frame finished at %v, must not start before 150us window", done)
	}
	if done > sim.Time(350*sim.Microsecond) {
		t.Errorf("frame finished at %v, should fit the 150..350us window", done)
	}
}

func TestControlLatencyImmuneToBulkLoad(t *testing.T) {
	// E4's mechanism: with a control-only gate window, worst-case control
	// latency is independent of bulk load.
	run := func(bulkFrames int) sim.Duration {
		k := sim.NewKernel(1)
		cfg := DefaultConfig("tt")
		cfg.GCL = ControlGCL(200*sim.Microsecond, 800*sim.Microsecond)
		n := New(k, cfg)
		n.Attach("cam", func(network.Delivery) {})
		n.Attach("ecu", func(network.Delivery) {})
		n.Attach("sink", func(network.Delivery) {})
		for i := 0; i < bulkFrames; i++ {
			n.Send(network.Message{Class: network.ClassBulk, Src: "cam", Dst: "sink", Bytes: 1500})
		}
		// Periodic control messages.
		tick := k.Every(0, sim.Millisecond, func() {
			n.Send(network.Message{Class: network.ClassControl, Src: "ecu", Dst: "sink", Bytes: 64})
		})
		k.RunUntil(sim.Time(50 * sim.Millisecond))
		tick.Stop()
		return n.Latency(network.ClassControl).MaxDuration()
	}
	quiet := run(0)
	loaded := run(2000)
	if loaded > quiet+5*sim.Microsecond {
		t.Errorf("control p100 under load %v ≫ quiet %v", loaded, quiet)
	}
}

func TestBroadcast(t *testing.T) {
	k := sim.NewKernel(1)
	n := plainNet(k)
	got := map[string]int{}
	for _, s := range []string{"cam", "ecu", "sink"} {
		s := s
		n.Attach(s, func(network.Delivery) { got[s]++ })
	}
	n.Send(network.Message{Class: network.ClassControl, Src: "cam", Bytes: 10})
	k.Run()
	if got["cam"] != 0 || got["ecu"] != 1 || got["sink"] != 1 {
		t.Errorf("broadcast counts = %v", got)
	}
}

func TestSendPanics(t *testing.T) {
	k := sim.NewKernel(1)
	n := plainNet(k)
	for _, msg := range []network.Message{
		{Src: "ghost", Bytes: 10},
		{Src: "cam", Bytes: 1501},
		{Src: "cam", Bytes: -1},
	} {
		msg := msg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send(%+v) did not panic", msg)
				}
			}()
			n.Send(msg)
		}()
	}
}

func TestBadGCLPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-duration GCL entry accepted")
		}
	}()
	New(sim.NewKernel(1), Config{GCL: []GateEntry{{OpenMask: AllOpen, Dur: 0}}})
}

func TestQueueFor(t *testing.T) {
	if QueueFor(network.ClassControl) != QueueControl ||
		QueueFor(network.ClassPriority) != QueuePriority ||
		QueueFor(network.ClassBulk) != QueueBulk {
		t.Error("QueueFor mapping wrong")
	}
}

func TestGateStateConstant(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig("x"))
	n.Attach("a", func(network.Delivery) {})
	l := n.stations["a"].egress
	open, next := l.gateState(QueueControl, 12345)
	if !open || next != 0 {
		t.Errorf("ungated link: open=%v next=%v", open, next)
	}
}
