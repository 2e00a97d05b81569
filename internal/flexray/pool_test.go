package flexray

import (
	"sort"
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// TestCycleAllocFree pins the closure-free schedule: once warm, a cycle
// with owned static slots allocates nothing, idle or carrying one static
// and one dynamic frame.
func TestCycleAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	b := cluster(k)
	n := 0
	b.Attach("sink", func(network.Delivery) { n++ })
	b.AssignSlot(0, "ctrl")
	b.AssignSlot(7, "ctrl")
	cycle := b.cfg.CycleLength()
	busy := func() {
		b.Send(network.Message{Class: network.ClassControl, Src: "ctrl", Dst: "sink", Bytes: 8})
		b.Send(network.Message{ID: 4, Class: network.ClassBulk, Src: "bulk", Dst: "sink", Bytes: 64})
		k.RunFor(cycle)
	}
	for i := 0; i < 64; i++ {
		busy()
	}
	before := n
	if a := testing.AllocsPerRun(100, busy); a != 0 {
		t.Errorf("warm cycle with traffic: %v allocs/op, want 0", a)
	}
	if got := n - before; got != 2*101 {
		t.Errorf("delivered %d frames, want %d", got, 2*101)
	}
	if a := testing.AllocsPerRun(100, func() { k.RunFor(cycle) }); a != 0 {
		t.Errorf("idle cycle: %v allocs/op, want 0", a)
	}
}

// TestDynamicOrderMatchesStableSort checks the dynamic segment's
// arbitration against its specification: frames queued for one segment
// transmit in the order a stable sort by ID gives, so duplicate IDs go
// in enqueue order.
func TestDynamicOrderMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(11)
	for round := 0; round < 50; round++ {
		k := sim.NewKernel(1)
		b := cluster(k)
		var got []int
		b.Attach("sink", func(d network.Delivery) { got = append(got, d.Msg.Payload.(int)) })
		type frame struct {
			id  uint32
			idx int
		}
		// At most 40 one-minislot frames: all fit one segment.
		batch := make([]frame, 1+rng.Intn(40))
		for i := range batch {
			batch[i] = frame{id: uint32(1 + rng.Intn(8)), idx: i}
			b.Send(network.Message{ID: batch[i].id, Class: network.ClassBulk,
				Src: "bulk", Dst: "sink", Bytes: 8, Payload: i})
		}
		k.RunFor(b.cfg.CycleLength())
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].id < batch[j].id })
		if len(got) != len(batch) {
			t.Fatalf("round %d: delivered %d of %d", round, len(got), len(batch))
		}
		for i := range batch {
			if got[i] != batch[i].idx {
				t.Fatalf("round %d: order %v, stable sort by ID gives frame %d at position %d",
					round, got, batch[i].idx, i)
			}
		}
	}
}

// TestAttachDuringBroadcast checks that a station attached by a
// receiver while a broadcast is being delivered first receives the next
// frame, and that every station already attached still gets this one.
func TestAttachDuringBroadcast(t *testing.T) {
	k := sim.NewKernel(1)
	b := New(k, DefaultConfig("chassis"))
	got := map[string]int{}
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		b.Attach(s, func(network.Delivery) { got[s]++ })
	}
	attached := false
	b.Attach("b", func(network.Delivery) {
		got["b"]++
		if !attached {
			attached = true
			b.Attach("bz", func(network.Delivery) { got["bz"]++ })
		}
	})
	msg := network.Message{ID: 1, Class: network.ClassBulk, Src: "a", Bytes: 8}
	b.Send(msg)
	k.RunFor(b.cfg.CycleLength())
	if len(got) != 4 || got["b"] != 1 || got["c"] != 1 || got["d"] != 1 || got["e"] != 1 {
		t.Fatalf("first broadcast counts = %v, want one each for b, c, d, e", got)
	}
	b.Send(msg)
	k.RunFor(b.cfg.CycleLength())
	if got["bz"] != 1 {
		t.Errorf("station attached during a broadcast got %d of the next one, want 1", got["bz"])
	}
}

// TestSendFromReceiver checks that a receiver sending from inside its
// callback does not disturb the broadcast it is handling: the frame's
// pooled record goes back to the pool only after the last receiver
// returns, so the nested Send gets another record.
func TestSendFromReceiver(t *testing.T) {
	k := sim.NewKernel(1)
	b := New(k, DefaultConfig("chassis"))
	got := map[string][]uint32{}
	for _, s := range []string{"a", "b", "c", "d"} {
		b.Attach(s, func(d network.Delivery) { got[s] = append(got[s], d.Msg.ID) })
	}
	b.Attach("b", func(d network.Delivery) {
		got["b"] = append(got["b"], d.Msg.ID)
		if d.Msg.ID == 1 {
			b.Send(network.Message{ID: 2, Class: network.ClassBulk, Src: "c", Dst: "d", Bytes: 8})
		}
	})
	// Warm the pool so a record recycled too early would be the
	// one the nested Send takes.
	b.Send(network.Message{ID: 9, Class: network.ClassBulk, Src: "a", Dst: "c", Bytes: 8})
	k.RunFor(b.cfg.CycleLength())
	got = map[string][]uint32{}
	b.Send(network.Message{ID: 1, Class: network.ClassBulk, Src: "a", Bytes: 8})
	k.RunFor(2 * b.cfg.CycleLength())
	if len(got["a"]) != 0 || len(got["b"]) != 1 || len(got["c"]) != 1 || got["c"][0] != 1 {
		t.Errorf("broadcast deliveries a=%v b=%v c=%v, want none, [1], [1]", got["a"], got["b"], got["c"])
	}
	if len(got["d"]) != 2 || got["d"][0] != 1 || got["d"][1] != 2 {
		t.Errorf("d got %v, want the broadcast then the nested frame [1 2]", got["d"])
	}
}
