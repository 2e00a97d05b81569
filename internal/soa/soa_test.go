package soa

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"dynaplat/internal/can"
	"dynaplat/internal/network"
	"dynaplat/internal/sim"
	"dynaplat/internal/tsn"
)

func TestWireRoundTrip(t *testing.T) {
	err := quick.Check(func(svc uint32, typ8 uint8, session, seq uint32, payload []byte) bool {
		if len(payload) > 1<<20 {
			payload = payload[:1<<20]
		}
		h := Header{ServiceID: svc, Type: MessageType(typ8%6 + 1), Session: session, Seq: seq}
		buf := EncodeHeader(h, payload)
		got, body, err := DecodeHeader(buf)
		if err != nil {
			return false
		}
		return got.ServiceID == h.ServiceID && got.Type == h.Type &&
			got.Session == h.Session && got.Seq == h.Seq &&
			int(got.Length) == len(payload) && bytes.Equal(body, payload)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestWireDecodeErrors(t *testing.T) {
	if _, _, err := DecodeHeader(make([]byte, 3)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short buffer: %v", err)
	}
	buf := EncodeHeader(Header{ServiceID: 1, Type: TypeEvent}, []byte("hi"))
	buf[0] = 0x00
	if _, _, err := DecodeHeader(buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	buf2 := EncodeHeader(Header{ServiceID: 1, Type: TypeEvent}, []byte("hello"))
	if _, _, err := DecodeHeader(buf2[:HeaderSize+2]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("truncated payload: %v", err)
	}
}

// testRig wires a middleware over a TSN backbone with three ECUs.
type testRig struct {
	k  *sim.Kernel
	mw *Middleware
	n  *tsn.Network
}

func newRig(auth Authorizer) *testRig {
	k := sim.NewKernel(1)
	n := tsn.New(k, tsn.DefaultConfig("backbone"))
	mw := New(k, auth)
	mw.AddNetwork(n, 1400)
	return &testRig{k: k, mw: mw, n: n}
}

// attached reports whether ecu's station is attached to the named
// network.
func (m *Middleware) attached(net, ecu string) bool {
	return m.attachedStations[stationKey{m.nets[net], ecu}]
}

func TestEventLocalDelivery(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("producer", "ecu1")
	cons := r.mw.Endpoint("consumer", "ecu1")
	prod.Offer("Temp", OfferOpts{})
	var got []Event
	if err := cons.Subscribe("Temp", func(ev Event) { got = append(got, ev) }); err != nil {
		t.Fatal(err)
	}
	prod.Publish("Temp", 8, 21.5)
	r.k.Run()
	if len(got) != 1 {
		t.Fatalf("events = %d", len(got))
	}
	if got[0].Latency() != LocalDelay {
		t.Errorf("local latency = %v, want %v", got[0].Latency(), LocalDelay)
	}
	if got[0].Payload != 21.5 {
		t.Errorf("payload = %v", got[0].Payload)
	}
}

func TestEventCrossECU(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("producer", "ecu1")
	cons := r.mw.Endpoint("consumer", "ecu2")
	prod.Offer("Temp", OfferOpts{Network: "backbone", Class: network.ClassPriority})
	var got []Event
	cons.Subscribe("Temp", func(ev Event) { got = append(got, ev) })
	prod.Publish("Temp", 8, nil)
	r.k.Run()
	if len(got) != 1 {
		t.Fatalf("events = %d", len(got))
	}
	if got[0].Latency() <= 0 || got[0].Latency() >= sim.Millisecond {
		t.Errorf("cross-ECU latency = %v", got[0].Latency())
	}
	if r.mw.ServiceLatency("Temp").Count() != 1 {
		t.Error("latency not sampled")
	}
}

func TestEventFanout(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("producer", "ecu1")
	prod.Offer("Speed", OfferOpts{Network: "backbone"})
	counts := map[string]int{}
	for _, app := range []string{"c1", "c2", "c3"} {
		app := app
		ecu := "ecu2"
		if app == "c3" {
			ecu = "ecu1" // same-ECU subscriber
		}
		r.mw.Endpoint(app, ecu).Subscribe("Speed", func(Event) { counts[app]++ })
	}
	prod.Publish("Speed", 16, nil)
	r.k.Run()
	if counts["c1"] != 1 || counts["c2"] != 1 || counts["c3"] != 1 {
		t.Errorf("fanout = %v", counts)
	}
}

func TestRPC(t *testing.T) {
	r := newRig(nil)
	srv := r.mw.Endpoint("server", "ecu1")
	cli := r.mw.Endpoint("client", "ecu2")
	srv.Offer("Sum", OfferOpts{
		Network: "backbone",
		Handler: func(req any) (int, any, sim.Duration) {
			xs := req.([]int)
			total := 0
			for _, x := range xs {
				total += x
			}
			return 8, total, 100 * sim.Microsecond
		},
	})
	var resp Event
	if err := cli.Call("Sum", 16, []int{1, 2, 3}, func(ev Event) { resp = ev }); err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if resp.Payload != 6 {
		t.Fatalf("response = %v", resp.Payload)
	}
	// RTT must include two wire trips plus processing.
	if rtt := resp.Latency(); rtt <= 100*sim.Microsecond {
		t.Errorf("rtt = %v, too small", rtt)
	}
}

func TestRPCWithoutHandler(t *testing.T) {
	r := newRig(nil)
	srv := r.mw.Endpoint("server", "ecu1")
	srv.Offer("NoHandler", OfferOpts{Network: "backbone"})
	err := r.mw.Endpoint("client", "ecu2").Call("NoHandler", 8, nil, nil)
	if err == nil {
		t.Error("Call without handler succeeded")
	}
}

func TestFindAndServices(t *testing.T) {
	r := newRig(nil)
	r.mw.Endpoint("a", "ecu1").Offer("S1", OfferOpts{Version: 3})
	r.mw.Endpoint("b", "ecu1").Offer("S2", OfferOpts{})
	prov, ver, err := r.mw.Find("S1")
	if err != nil || prov != "a" || ver != 3 {
		t.Errorf("Find = %q v%d %v", prov, ver, err)
	}
	if _, _, err := r.mw.Find("Ghost"); err == nil {
		t.Error("Find(Ghost) succeeded")
	}
	var ns *ErrNoService
	if _, _, err := r.mw.Find("Ghost"); !errors.As(err, &ns) {
		t.Errorf("error type = %T", err)
	}
	svcs := r.mw.Services()
	if len(svcs) != 2 || svcs[0] != "S1" || svcs[1] != "S2" {
		t.Errorf("Services = %v", svcs)
	}
}

func TestSubscribeUnknown(t *testing.T) {
	r := newRig(nil)
	err := r.mw.Endpoint("c", "ecu1").Subscribe("Ghost", func(Event) {})
	var ns *ErrNoService
	if !errors.As(err, &ns) {
		t.Errorf("err = %v", err)
	}
}

type denyAll struct{}

func (denyAll) Authorize(string, string) bool { return false }

func TestAuthorizationDenied(t *testing.T) {
	r := newRig(denyAll{})
	prod := r.mw.Endpoint("p", "ecu1")
	prod.Offer("S", OfferOpts{Network: "backbone", Handler: func(any) (int, any, sim.Duration) { return 0, nil, 0 }})
	cons := r.mw.Endpoint("c", "ecu2")
	var ua *ErrUnauthorized
	if err := cons.Subscribe("S", func(Event) {}); !errors.As(err, &ua) {
		t.Errorf("subscribe err = %v", err)
	}
	if err := cons.Call("S", 8, nil, nil); !errors.As(err, &ua) {
		t.Errorf("call err = %v", err)
	}
	if r.mw.DeniedBindings != 2 {
		t.Errorf("DeniedBindings = %d", r.mw.DeniedBindings)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("p", "ecu1")
	cons := r.mw.Endpoint("c", "ecu1")
	prod.Offer("S", OfferOpts{})
	n := 0
	cons.Subscribe("S", func(Event) { n++ })
	prod.Publish("S", 4, nil)
	r.k.Run()
	cons.Unsubscribe("S")
	prod.Publish("S", 4, nil)
	r.k.Run()
	if n != 1 {
		t.Errorf("deliveries = %d, want 1", n)
	}
}

func TestRemoveEndpointRemovesOffersAndSubs(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("p", "ecu1")
	cons := r.mw.Endpoint("c", "ecu1")
	prod.Offer("S", OfferOpts{})
	cons.Subscribe("S", func(Event) {})
	r.mw.RemoveEndpoint("c")
	if len(r.mw.svcs["S"].subs) != 0 {
		t.Error("subscription survived RemoveEndpoint")
	}
	r.mw.RemoveEndpoint("p")
	if _, _, err := r.mw.Find("S"); err == nil {
		t.Error("offer survived RemoveEndpoint")
	}
}

func TestSegmentationOverCAN(t *testing.T) {
	// A 64-byte event over CAN must be split into 8-byte frames.
	k := sim.NewKernel(1)
	bus := can.New(k, can.Config{Name: "body", BitsPerSecond: 500_000})
	mw := New(k, nil)
	mw.AddNetwork(bus, can.MaxPayload)
	prod := mw.Endpoint("p", "ecu1")
	cons := mw.Endpoint("c", "ecu2")
	prod.Offer("Big", OfferOpts{Network: "body"})
	var got []Event
	cons.Subscribe("Big", func(ev Event) { got = append(got, ev) })
	prod.Publish("Big", 64, nil)
	k.Run()
	if len(got) != 1 {
		t.Fatalf("events = %d", len(got))
	}
	// 64B payload + 17B header = 81B → 11 CAN frames.
	if bus.FramesSent != 11 {
		t.Errorf("frames = %d, want 11", bus.FramesSent)
	}
	// Delivery completes only after the last frame.
	wantMin := 10 * bus.FrameTime(8)
	if got[0].Latency() < wantMin {
		t.Errorf("latency = %v < %v", got[0].Latency(), wantMin)
	}
}

func TestLocalOnlyInterfacePanicsCrossECU(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("p", "ecu1")
	cons := r.mw.Endpoint("c", "ecu2")
	prod.Offer("Local", OfferOpts{}) // no network
	cons.Subscribe("Local", func(Event) {})
	defer func() {
		if recover() == nil {
			t.Error("cross-ECU publish on local-only interface did not panic")
		}
	}()
	prod.Publish("Local", 4, nil)
	r.k.Run()
}

func TestPublishUnofferedPanics(t *testing.T) {
	r := newRig(nil)
	ep := r.mw.Endpoint("p", "ecu1")
	defer func() {
		if recover() == nil {
			t.Error("publish of unoffered interface did not panic")
		}
	}()
	ep.Publish("Nope", 4, nil)
}

func TestStreamDelivery(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("cam", "ecu1")
	cons := r.mw.Endpoint("viz", "ecu2")
	prod.Offer("Video", OfferOpts{Network: "backbone", Class: network.ClassBulk})
	rx := &StreamReceiver{KeyInterval: 10}
	cons.Subscribe("Video", rx.Consume)
	st := prod.OpenStream("Video", 10)
	r.k.Every(0, sim.Millisecond, func() {
		if st.Seq() < 50 {
			st.SendFrame(1000, nil)
		}
	})
	r.k.RunUntil(sim.Time(100 * sim.Millisecond))
	if rx.Frames != 50 {
		t.Errorf("frames = %d, want 50", rx.Frames)
	}
	if rx.Stalled != 0 {
		t.Errorf("stalled = %d, want 0", rx.Stalled)
	}
	if rx.InterFrame.Count() != 49 {
		t.Errorf("inter-frame samples = %d", rx.InterFrame.Count())
	}
	// In-order network, periodic send → inter-frame jitter ≈ 0.
	if j := rx.InterFrame.Jitter(); j > 10*sim.Microsecond {
		t.Errorf("stream jitter = %v", j)
	}
}

func TestStreamReceiverStallOnGap(t *testing.T) {
	rx := &StreamReceiver{KeyInterval: 4}
	mk := func(seq uint32, at sim.Time) Event {
		return Event{Seq: seq, Delivered: at, Published: at}
	}
	rx.Consume(mk(0, 10)) // key
	rx.Consume(mk(1, 20))
	rx.Consume(mk(3, 30)) // gap: 2 missing → stall
	if rx.Stalled != 1 || rx.Frames != 2 {
		t.Fatalf("frames=%d stalled=%d", rx.Frames, rx.Stalled)
	}
	rx.Consume(mk(4, 40)) // key frame resynchronizes
	if rx.Frames != 3 || rx.Stalled != 1 {
		t.Errorf("after key: frames=%d stalled=%d", rx.Frames, rx.Stalled)
	}
	rx.Consume(mk(5, 50))
	if rx.Frames != 4 {
		t.Errorf("frames = %d", rx.Frames)
	}
}

func TestMigrateChangesDeliveryPath(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("p", "ecu1")
	cons := r.mw.Endpoint("c", "ecu1")
	prod.Offer("S", OfferOpts{Network: "backbone"})
	var lats []sim.Duration
	cons.Subscribe("S", func(ev Event) { lats = append(lats, ev.Latency()) })
	prod.Publish("S", 8, nil)
	r.k.Run()
	cons.Migrate("ecu2")
	prod.Publish("S", 8, nil)
	r.k.Run()
	if len(lats) != 2 {
		t.Fatalf("events = %d", len(lats))
	}
	if lats[0] != LocalDelay {
		t.Errorf("local latency = %v", lats[0])
	}
	if lats[1] <= lats[0] {
		t.Errorf("cross-ECU latency %v should exceed local %v", lats[1], lats[0])
	}
}
