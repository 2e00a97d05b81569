package flexray

import (
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

func cluster(k *sim.Kernel) *Bus {
	b := New(k, DefaultConfig("chassis"))
	b.Attach("ctrl", func(network.Delivery) {})
	b.Attach("bulk", func(network.Delivery) {})
	return b
}

func TestCycleLength(t *testing.T) {
	cfg := DefaultConfig("x")
	// 40*100us + 100*10us = 5ms
	if got := cfg.CycleLength(); got != 5*sim.Millisecond {
		t.Errorf("cycle = %v, want 5ms", got)
	}
}

func TestStaticSlotDeterminism(t *testing.T) {
	k := sim.NewKernel(1)
	b := cluster(k)
	var got []network.Delivery
	b.Attach("sink", func(d network.Delivery) { got = append(got, d) })
	b.AssignSlot(2, "ctrl")
	// Enqueue at t=0; slot 2 of the first cycle ends at 300us.
	b.Send(network.Message{Class: network.ClassControl, Src: "ctrl", Dst: "sink", Bytes: 8})
	k.RunFor(20 * sim.Millisecond)
	if len(got) != 1 {
		t.Fatalf("deliveries = %d", len(got))
	}
	if got[0].Delivered != sim.Time(300*sim.Microsecond) {
		t.Errorf("delivered at %v, want 300us", got[0].Delivered)
	}
	if b.StaticSent != 1 {
		t.Errorf("StaticSent = %d", b.StaticSent)
	}
}

func TestStaticSlotIsImmuneToDynamicLoad(t *testing.T) {
	// The paper's Section 5.3 claim: TDMA isolation means static latency
	// does not depend on dynamic-segment load.
	latencyUnder := func(dynamicFrames int) sim.Duration {
		k := sim.NewKernel(1)
		b := cluster(k)
		var lat sim.Duration
		b.Attach("sink", func(d network.Delivery) {
			if d.Msg.Class == network.ClassControl {
				lat = d.Latency()
			}
		})
		b.AssignSlot(0, "ctrl")
		for i := 0; i < dynamicFrames; i++ {
			b.Send(network.Message{ID: uint32(i + 1), Class: network.ClassBulk,
				Src: "bulk", Dst: "sink", Bytes: 128})
		}
		b.Send(network.Message{Class: network.ClassControl, Src: "ctrl", Dst: "sink", Bytes: 8})
		k.RunFor(100 * sim.Millisecond)
		return lat
	}
	quiet := latencyUnder(0)
	loaded := latencyUnder(500)
	if quiet != loaded {
		t.Errorf("static latency changed under load: %v vs %v", quiet, loaded)
	}
}

func TestDynamicPriorityOrder(t *testing.T) {
	k := sim.NewKernel(1)
	b := cluster(k)
	var order []uint32
	b.Attach("sink", func(d network.Delivery) { order = append(order, d.Msg.ID) })
	b.Send(network.Message{ID: 9, Class: network.ClassBulk, Src: "bulk", Dst: "sink", Bytes: 8})
	b.Send(network.Message{ID: 3, Class: network.ClassBulk, Src: "bulk", Dst: "sink", Bytes: 8})
	b.Send(network.Message{ID: 6, Class: network.ClassBulk, Src: "bulk", Dst: "sink", Bytes: 8})
	k.RunFor(10 * sim.Millisecond)
	if len(order) != 3 || order[0] != 3 || order[1] != 6 || order[2] != 9 {
		t.Errorf("dynamic order = %v, want ascending ID", order)
	}
}

func TestDynamicDeferralToNextCycle(t *testing.T) {
	k := sim.NewKernel(1)
	b := cluster(k)
	var delivered []sim.Time
	b.Attach("sink", func(d network.Delivery) { delivered = append(delivered, d.Delivered) })
	// 100 minislots of 10us = 1ms dynamic segment per cycle. One 2000-byte
	// frame at 10 Mbps = 1.6ms > segment → it can never fit... so use
	// 1000B = 800us = 80 minislots; two of them cannot share one cycle.
	b.Send(network.Message{ID: 1, Class: network.ClassBulk, Src: "bulk", Dst: "sink", Bytes: 1000})
	b.Send(network.Message{ID: 2, Class: network.ClassBulk, Src: "bulk", Dst: "sink", Bytes: 1000})
	k.RunFor(30 * sim.Millisecond)
	if len(delivered) != 2 {
		t.Fatalf("deliveries = %d", len(delivered))
	}
	// First in cycle 0's dynamic segment, second one cycle later.
	if delivered[1].Sub(delivered[0]) != DefaultConfig("x").CycleLength() {
		t.Errorf("deferral gap = %v, want one cycle", delivered[1].Sub(delivered[0]))
	}
	if b.DynamicDeferred == 0 {
		t.Error("DynamicDeferred not counted")
	}
}

func TestSlotAssignmentErrors(t *testing.T) {
	k := sim.NewKernel(1)
	b := cluster(k)
	b.AssignSlot(0, "ctrl")
	for _, fn := range []func(){
		func() { b.AssignSlot(0, "bulk") },
		func() { b.AssignSlot(-1, "ctrl") },
		func() { b.AssignSlot(40, "ctrl") },
		func() { b.Send(network.Message{Class: network.ClassControl, Src: "bulk", Bytes: 1}) },
		func() { b.Send(network.Message{Class: network.ClassControl, Src: "ctrl", Bytes: 64}) },
		func() { b.Send(network.Message{Src: "ghost", Bytes: 1}) },
	} {
		fn := fn
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestStaticPeriodicStream(t *testing.T) {
	// A 5ms-periodic control app transmitting in its own slot sees
	// constant latency — zero jitter.
	k := sim.NewKernel(1)
	b := cluster(k)
	var lat sim.Stats
	b.Attach("sink", func(d network.Delivery) { lat.AddDuration(d.Latency()) })
	b.AssignSlot(5, "ctrl")
	k.Every(0, 5*sim.Millisecond, func() {
		b.Send(network.Message{Class: network.ClassControl, Src: "ctrl", Dst: "sink", Bytes: 16})
	})
	k.RunUntil(sim.Time(100 * sim.Millisecond))
	if lat.Count() < 19 {
		t.Fatalf("samples = %d", lat.Count())
	}
	if j := lat.Jitter(); j != 0 {
		t.Errorf("static-slot jitter = %v, want 0", j)
	}
}
