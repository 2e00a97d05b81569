package tsn

import (
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// sendRig is a warmed plainNet whose send moves msg to every receiver
// and returns: the steady state of the frame path.
func sendRig(msg network.Message) (send func(), delivered *int) {
	k := sim.NewKernel(1)
	n := plainNet(k)
	count := 0
	for _, s := range []string{"cam", "ecu", "sink"} {
		n.Attach(s, func(network.Delivery) { count++ })
	}
	send = func() {
		n.Send(msg)
		k.Run()
	}
	for i := 0; i < 64; i++ {
		send()
	}
	return send, &count
}

// TestSendDeliverAllocFree pins the pooled frame path: once warm, a
// unicast and a broadcast send→deliver allocate nothing. AllocsPerRun
// floors its average, so the second run counts every allocation over
// 8192 sends: a statistic that grows once every few thousand frames
// shows there.
func TestSendDeliverAllocFree(t *testing.T) {
	for _, c := range []struct {
		name string
		dst  string
		per  int // deliveries per send
	}{{"unicast", "sink", 1}, {"broadcast", "", 2}} {
		send, n := sendRig(network.Message{Class: network.ClassPriority, Src: "ecu", Dst: c.dst, Bytes: 100})
		before := *n
		if a := testing.AllocsPerRun(200, send); a != 0 {
			t.Errorf("warm TSN %s send→deliver: %v allocs/op, want 0", c.name, a)
		}
		if got := *n - before; got != 201*c.per {
			t.Errorf("%s: delivered %d frames, want %d", c.name, got, 201*c.per)
		}
		a := testing.AllocsPerRun(1, func() {
			for i := 0; i < 8192; i++ {
				send()
			}
		})
		if a != 0 {
			t.Errorf("8192 warm TSN %s sends: %v allocs, want 0", c.name, a)
		}
	}
}

// BenchmarkTSNSendDeliver measures one warm unicast frame over uplink,
// switch and egress port to the receiver.
//
//	go test -run '^$' -bench TSNSendDeliver -benchmem ./internal/tsn/
func BenchmarkTSNSendDeliver(b *testing.B) {
	send, _ := sendRig(network.Message{Class: network.ClassPriority, Src: "ecu", Dst: "sink", Bytes: 100})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// TestAttachDuringBroadcast checks that a station attached by a
// receiver while a broadcast is being delivered does not get that frame
// but does get the next one.
func TestAttachDuringBroadcast(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig("backbone"))
	got := map[string]int{}
	for _, s := range []string{"a", "b", "c", "d", "e"} {
		n.Attach(s, func(network.Delivery) { got[s]++ })
	}
	attached := false
	n.Attach("b", func(network.Delivery) {
		got["b"]++
		if !attached {
			attached = true
			n.Attach("bz", func(network.Delivery) { got["bz"]++ })
		}
	})
	msg := network.Message{Class: network.ClassBulk, Src: "a", Bytes: 64}
	n.Send(msg)
	k.Run()
	if len(got) != 4 || got["b"] != 1 || got["c"] != 1 || got["d"] != 1 || got["e"] != 1 {
		t.Fatalf("first broadcast counts = %v, want one each for b, c, d, e", got)
	}
	n.Send(msg)
	k.Run()
	if got["bz"] != 1 {
		t.Errorf("station attached during a broadcast got %d of the next one, want 1", got["bz"])
	}
}

// TestSendFromReceiver checks that a receiver sending from inside its
// callback leaves the broadcast copies it is handling intact: a copy's
// record is recycled only after its receiver returns.
func TestSendFromReceiver(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig("backbone"))
	got := map[string][]uint32{}
	for _, s := range []string{"a", "b", "c", "d"} {
		n.Attach(s, func(d network.Delivery) { got[s] = append(got[s], d.Msg.ID) })
	}
	n.Attach("b", func(d network.Delivery) {
		got["b"] = append(got["b"], d.Msg.ID)
		if d.Msg.ID == 1 {
			n.Send(network.Message{ID: 2, Class: network.ClassBulk, Src: "b", Dst: "d", Bytes: 64})
		}
	})
	n.Send(network.Message{ID: 9, Class: network.ClassBulk, Src: "a", Dst: "c", Bytes: 64})
	k.Run()
	got = map[string][]uint32{}
	n.Send(network.Message{ID: 1, Class: network.ClassBulk, Src: "a", Bytes: 64})
	k.Run()
	if len(got["a"]) != 0 || len(got["b"]) != 1 || len(got["c"]) != 1 || got["c"][0] != 1 {
		t.Errorf("broadcast deliveries a=%v b=%v c=%v, want none, [1], [1]", got["a"], got["b"], got["c"])
	}
	if len(got["d"]) != 2 || got["d"][0] != 1 || got["d"][1] != 2 {
		t.Errorf("d got %v, want the broadcast then the nested frame [1 2]", got["d"])
	}
}
