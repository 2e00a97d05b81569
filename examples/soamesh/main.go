// Soamesh exercises the complete service-oriented communication story of
// the paper's Figure 3 on one vehicle: runtime service discovery over the
// wire, the three paradigms (event, RPC, stream), DDS-style QoS (history
// for a late joiner, supervised deadlines), end-to-end protected safety
// payloads over a lossy legacy CAN bus bridged through a gateway. Run:
//
//	go run ./examples/soamesh
package main

import (
	"fmt"
	"log"

	"dynaplat/internal/can"
	"dynaplat/internal/gateway"
	"dynaplat/internal/network"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/tsn"
)

func main() {
	k := sim.NewKernel(11)
	backbone := tsn.New(k, tsn.DefaultConfig("backbone"))
	body := can.New(k, can.Config{Name: "body", BitsPerSecond: 500_000,
		FrameLossRate: 0.02}) // an aging, slightly lossy legacy bus
	mw := soa.New(k, nil)
	mw.AddNetwork(backbone, 1400)
	mw.AddNetwork(body, can.MaxPayload)

	// --- Discovery: the dashboard finds the climate service at runtime.
	climate := mw.Endpoint("climate", "cpm1")
	climate.Offer("CabinTemp", soa.OfferOpts{Network: "backbone"})
	climate.EnableHistory("CabinTemp", 1) // late joiners get the last value
	mw.Endpoint("dash", "head").Discover("CabinTemp", sim.Second,
		func(r soa.DiscoveryResult) {
			fmt.Printf("discovered CabinTemp: provider=%s rtt=%v\n", r.Provider, r.RTT)
		})

	// --- Event + QoS: publish temperature; the dash joins late but gets
	// the last value instantly; a deadline supervises liveness.
	temp := 21.5
	k.Every(0, 100*sim.Millisecond, func() {
		climate.Publish("CabinTemp", 8, temp)
	})
	k.RunFor(350 * sim.Millisecond) // dash joins late
	received := 0
	deadlineMisses := 0
	dash := mw.Endpoint("dash", "head")
	err := dash.SubscribeQoS("CabinTemp", soa.QoS{
		History:        1,
		Deadline:       300 * sim.Millisecond,
		OnDeadlineMiss: func(string, sim.Duration) { deadlineMisses++ },
	}, func(ev soa.Event) { received++ })
	if err != nil {
		log.Fatal(err)
	}

	// --- RPC with a single timed attempt: set the target temperature.
	climate.Offer("SetTemp", soa.OfferOpts{Network: "backbone",
		Handler: func(req any) (int, any, sim.Duration) {
			temp = req.(float64)
			return 1, true, 500 * sim.Microsecond
		}})
	dash.CallRetry("SetTemp", 8, 19.0, 50*sim.Millisecond, soa.RetryPolicy{MaxAttempts: 1},
		func(soa.Event) { fmt.Println("SetTemp acknowledged") },
		func() { log.Fatal("SetTemp timed out") })

	// --- Stream: a camera feeds the head unit.
	cam := mw.Endpoint("cam", "cpm1")
	cam.Offer("RearView", soa.OfferOpts{Network: "backbone", Class: network.ClassBulk})
	rx := &soa.StreamReceiver{KeyInterval: 30}
	dash.Subscribe("RearView", rx.Consume)
	st := cam.OpenStream("RearView", 30)
	k.Every(k.Now(), 33*sim.Millisecond, func() { st.SendFrame(1200, nil) })

	// --- E2E over the lossy legacy bus, bridged to the backbone.
	gw := gateway.New(k, gateway.Config{Name: "gw", ProcDelay: 100 * sim.Microsecond})
	gw.AttachPort(body, can.MaxPayload)
	gw.AttachPort(backbone, 1400)
	gw.AddRoute(gateway.Route{FromNet: "body", ToNet: "backbone",
		ID: 0x42, Dst: "logger"})
	tx := &soa.E2ESender{DataID: 0x42}
	e2e := &soa.E2EReceiver{DataID: 0x42}
	// A dedicated logger station consumes the bridged safety stream
	// (stations are single-receiver: never re-Attach one the middleware
	// already owns).
	backbone.Attach("logger", func(d network.Delivery) {
		if d.Msg.ID != 0x42 {
			return
		}
		if buf, ok := d.Msg.Payload.([]byte); ok {
			e2e.Check(buf)
		}
	})
	body.Attach("wheelspeed", func(network.Delivery) {})
	k.Every(k.Now(), 10*sim.Millisecond, func() {
		body.Send(network.Message{ID: 0x42, Src: "wheelspeed", Bytes: 8,
			Payload: tx.Protect([]byte{1, 2, 3, 4})})
	})

	k.RunFor(10 * sim.Second)

	fmt.Printf("\nevents received by late joiner: %d (incl. 1 history sample)\n", received)
	fmt.Printf("QoS deadline misses: %d\n", deadlineMisses)
	fmt.Printf("final cabin target: %.1f°C\n", temp)
	fmt.Printf("stream: %d frames decoded, %d stalls, inter-frame jitter %v\n",
		rx.Frames, rx.Stalled, rx.InterFrame.Jitter())
	fmt.Printf("legacy bus: %d frames lost on the wire; E2E saw ok=%d loss-episodes=%d (crc=%d)\n",
		body.FramesLost, e2e.OK, e2e.Loss, e2e.WrongCRC)
	if e2e.Loss == 0 || body.FramesLost == 0 {
		log.Fatal("loss injection or detection inert")
	}
	fmt.Println("\nevery wire loss surfaced as a detected E2E gap — no silent data loss.")
}
