package soa

import (
	"testing"

	"dynaplat/internal/can"
	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// End-to-end cohesion test: a periodic publisher on a lossy CAN bus, the
// consumer validating with an E2E receiver. Every bus error must surface
// as a detected loss — never as silently missing or corrupted data.
func TestE2EDetectsRealBusLosses(t *testing.T) {
	k := sim.NewKernel(21)
	bus := can.New(k, can.Config{Name: "body", BitsPerSecond: 500_000,
		FrameLossRate: 0.05})
	bus.Attach("src", func(network.Delivery) {})

	tx := &E2ESender{DataID: 5}
	rx := &E2EReceiver{DataID: 5}
	delivered := 0
	bus.Attach("dst", func(d network.Delivery) {
		buf, ok := d.Msg.Payload.([]byte)
		if !ok {
			t.Fatal("payload type")
		}
		st, _ := rx.Check(buf)
		if st == E2EWrongCRC || st == E2EWrongID {
			t.Fatalf("unexpected status %v on clean-but-lossy channel", st)
		}
		delivered++
	})
	const sent = 500
	for i := 0; i < sent; i++ {
		i := i
		k.At(sim.Time(i)*sim.Time(2*sim.Millisecond), func() {
			// One protected sample per frame (payload stays tiny so the
			// envelope is the "wire" content; CAN timing uses Bytes=8).
			bus.Send(network.Message{ID: 0x100, Src: "src", Dst: "dst",
				Bytes: 8, Payload: tx.Protect([]byte{byte(i)})})
		})
	}
	k.Run()
	if bus.FramesLost == 0 {
		t.Fatal("loss injection inert")
	}
	if delivered+int(bus.FramesLost) != sent {
		t.Fatalf("delivered %d + lost %d != sent %d", delivered, bus.FramesLost, sent)
	}
	// Every loss episode visible to the application layer.
	if rx.Loss == 0 {
		t.Fatal("E2E receiver saw no losses")
	}
	// Loss episodes ≤ lost frames (consecutive losses fold into one).
	if rx.Loss > bus.FramesLost {
		t.Errorf("loss episodes %d > lost frames %d", rx.Loss, bus.FramesLost)
	}
	if rx.OK == 0 || rx.WrongCRC != 0 || rx.Repetition != 0 {
		t.Errorf("rx counters: ok=%d crc=%d rep=%d", rx.OK, rx.WrongCRC, rx.Repetition)
	}
}

func TestCallTimeout(t *testing.T) {
	r := newRig(nil)
	srv := r.mw.Endpoint("server", "ecu1")
	cli := r.mw.Endpoint("client", "ecu2")
	srv.Offer("Slow", OfferOpts{Network: "backbone",
		Handler: func(any) (int, any, sim.Duration) {
			return 8, nil, 200 * sim.Millisecond // slower than the timeout
		}})
	srv.Offer("Fast", OfferOpts{Network: "backbone",
		Handler: func(any) (int, any, sim.Duration) { return 8, nil, sim.Millisecond }})

	once := RetryPolicy{MaxAttempts: 1}
	timedOut, answered := false, false
	if err := cli.CallRetry("Slow", 8, nil, 50*sim.Millisecond, once,
		func(Event) { answered = true }, func() { timedOut = true }); err != nil {
		t.Fatal(err)
	}
	fastOK := false
	if err := cli.CallRetry("Fast", 8, nil, 50*sim.Millisecond, once,
		func(Event) { fastOK = true }, func() { t.Error("fast call timed out") }); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if !timedOut || answered {
		t.Errorf("slow call: timedOut=%v answered=%v", timedOut, answered)
	}
	if !fastOK {
		t.Error("fast call not answered")
	}
	if r.mw.RPCTimeouts != 1 {
		t.Errorf("RPCTimeouts = %d", r.mw.RPCTimeouts)
	}
	if err := cli.CallRetry("Fast", 8, nil, 0, once, nil, nil); err == nil {
		t.Error("zero timeout accepted")
	}
}
