package can

import (
	"sort"
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/obs"
	"dynaplat/internal/sim"
)

// unicastRig is a warmed two-station bus whose send delivers one frame
// per call: the steady state of the frame path.
func unicastRig() (send func(), delivered *int) {
	k := sim.NewKernel(1)
	b := newBus(k)
	n := 0
	b.Attach("a", func(network.Delivery) {})
	b.Attach("z", func(network.Delivery) { n++ })
	msg := network.Message{ID: 0x100, Src: "a", Dst: "z", Bytes: 8}
	send = func() {
		b.Send(msg)
		k.Run()
	}
	for i := 0; i < 64; i++ {
		send()
	}
	return send, &n
}

// TestSendDeliverAllocFree pins the pooled frame path: once warm, a
// unicast send→deliver allocates nothing. AllocsPerRun floors its
// average, so the second run counts every allocation over 8192 sends:
// a statistic that grows once every few thousand frames shows there.
func TestSendDeliverAllocFree(t *testing.T) {
	send, n := unicastRig()
	before := *n
	if a := testing.AllocsPerRun(200, send); a != 0 {
		t.Errorf("warm CAN send→deliver: %v allocs/op, want 0", a)
	}
	if *n-before != 201 {
		t.Errorf("delivered %d frames, want 201", *n-before)
	}
	a := testing.AllocsPerRun(1, func() {
		for i := 0; i < 8192; i++ {
			send()
		}
	})
	if a != 0 {
		t.Errorf("8192 warm CAN sends: %v allocs, want 0", a)
	}
}

// BenchmarkCANSendDeliver measures one warm unicast frame from Send to
// the receiver.
//
//	go test -run '^$' -bench CANSendDeliver -benchmem ./internal/can/
func BenchmarkCANSendDeliver(b *testing.B) {
	send, _ := unicastRig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// TestArbitrationMatchesStableSort checks the linear-scan arbiter
// against its specification: frames pending at once win in the order a
// stable sort by ID gives, so duplicate IDs go in enqueue order.
func TestArbitrationMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(7)
	for round := 0; round < 50; round++ {
		k := sim.NewKernel(1)
		b := newBus(k)
		var got []int
		b.Attach("src", func(network.Delivery) {})
		b.Attach("dst", func(d network.Delivery) {
			if i, ok := d.Msg.Payload.(int); ok {
				got = append(got, i)
			}
		})
		// The blocker takes the idle bus; the batch then queues behind
		// it and arbitrates frame by frame.
		b.Send(network.Message{ID: 0, Src: "src", Dst: "dst", Bytes: 1})
		type frame struct {
			id  uint32
			idx int
		}
		n := 1 + rng.Intn(40)
		batch := make([]frame, n)
		for i := range batch {
			// A small ID range forces duplicates.
			batch[i] = frame{id: uint32(1 + rng.Intn(8)), idx: i}
			b.Send(network.Message{ID: batch[i].id, Src: "src", Dst: "dst", Bytes: 2, Payload: i})
		}
		k.Run()
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].id < batch[j].id })
		if len(got) != n {
			t.Fatalf("round %d: delivered %d of %d", round, len(got), n)
		}
		for i := range batch {
			if got[i] != batch[i].idx {
				t.Fatalf("round %d: winner order %v, stable sort by ID gives frame %d at position %d",
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
	b := newBus(k)
	got := map[string]int{}
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		b.Attach(n, func(network.Delivery) { got[n]++ })
	}
	attached := false
	b.Attach("b", func(network.Delivery) {
		got["b"]++
		if !attached {
			attached = true
			// "bz" sorts between b and c, inside the running loop.
			b.Attach("bz", func(network.Delivery) { got["bz"]++ })
		}
	})
	b.Send(network.Message{ID: 1, Src: "a", Bytes: 4})
	k.Run()
	want := map[string]int{"b": 1, "c": 1, "d": 1, "e": 1}
	if len(got) != len(want) || got["b"] != 1 || got["c"] != 1 || got["d"] != 1 || got["e"] != 1 {
		t.Fatalf("first broadcast counts = %v, want %v", got, want)
	}
	b.Send(network.Message{ID: 1, Src: "a", Bytes: 4})
	k.Run()
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
	b := newBus(k)
	got := map[string][]uint32{}
	for _, n := range []string{"a", "b", "c", "d"} {
		b.Attach(n, func(d network.Delivery) { got[n] = append(got[n], d.Msg.ID) })
	}
	b.Attach("b", func(d network.Delivery) {
		got["b"] = append(got["b"], d.Msg.ID)
		if d.Msg.ID == 1 {
			b.Send(network.Message{ID: 2, Src: "c", Dst: "d", Bytes: 1})
		}
	})
	// Warm the pool so a record recycled too early would be the
	// one the nested Send takes.
	b.Send(network.Message{ID: 9, Src: "a", Dst: "b", Bytes: 1})
	k.Run()
	got = map[string][]uint32{}
	b.Send(network.Message{ID: 1, Src: "a", Bytes: 4})
	k.Run()
	if len(got["a"]) != 0 {
		t.Errorf("sender received its own broadcast: %v", got["a"])
	}
	if len(got["b"]) != 1 || len(got["c"]) != 1 || got["c"][0] != 1 {
		t.Errorf("broadcast deliveries b=%v c=%v, want [1] each", got["b"], got["c"])
	}
	if len(got["d"]) != 2 || got["d"][0] != 1 || got["d"][1] != 2 {
		t.Errorf("d got %v, want the broadcast then the nested frame [1 2]", got["d"])
	}
}

// TestObservedSendAllocs pins the typed trace site of arbitrate: on an
// observed kernel a warm frame's records (the tap's span and tx-start
// and the kernel's "id=… tx=…" line) store integers and interned
// strings, so 1024 frames allocate only the trace blocks they fill.
func TestObservedSendAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	o := obs.New(k)
	k.SetObserver(o)
	b := newBus(k)
	b.Attach("a", func(network.Delivery) {})
	b.Attach("z", func(network.Delivery) {})
	msg := network.Message{ID: 0x100, Src: "a", Dst: "z", Bytes: 8}
	send := func() {
		b.Send(msg)
		k.Run()
	}
	for i := 0; i < 64; i++ {
		send()
	}
	// AllocsPerRun counts the second of two calls.
	recs := 0
	a := testing.AllocsPerRun(1, func() {
		start := o.T.Len()
		for i := 0; i < 1024; i++ {
			send()
		}
		recs = o.T.Len() - start
	})
	if recs != 4*1024 {
		t.Fatalf("1024 observed CAN frames left %d records, want 4 each", recs)
	}
	// A trace chains one block per 256 records.
	if blocks := float64(recs/256 + 1); a > blocks {
		t.Errorf("1024 observed CAN frames: %v allocs, want at most %v blocks", a, blocks)
	}
}
