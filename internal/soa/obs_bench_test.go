package soa

import (
	"testing"

	"dynaplat/internal/can"
	"dynaplat/internal/obs"
)

// Overhead of the observability hooks on the SOA publish→deliver path.
//
//	go test -run '^$' -bench 'BenchmarkPublishDeliver' -benchmem ./internal/soa/
//
// The hooks-disabled variant is the default production configuration:
// every hook reduces to one nil check, so its numbers must track the
// pre-observability baseline. The observed variant bounds its trace
// (Cap) so the comparison measures hook cost, not slice growth. The
// cross-ECU variant puts the subscriber on another ECU behind a 500 kbps
// CAN bus, so each 25-byte publication is segmented into four frames
// that arbitrate and deliver over the bus: the fleet vehicle's path.
func benchPublishDeliver(b *testing.B, observed, crossECU bool) {
	// A nil Env hands out an unobserved kernel.
	var env *obs.Env
	if observed {
		env = &obs.Env{Observe: true, TraceCap: 1 << 12}
	}
	k := env.Kernel("bench", 1)
	mw := New(k, nil)
	prod := mw.Endpoint("p", "ecu1")
	consECU, opts := "ecu1", OfferOpts{}
	if crossECU {
		mw.AddNetwork(can.New(k, can.Config{Name: "body", BitsPerSecond: 500_000}), can.MaxPayload)
		consECU, opts = "ecu2", OfferOpts{Network: "body"}
	}
	prod.Offer("Speed", opts)
	cons := mw.Endpoint("c", consECU)
	if err := cons.Subscribe("Speed", func(Event) {}); err != nil {
		b.Fatal(err)
	}
	// Warm the kernel pool and the per-service instrument cache.
	for i := 0; i < 64; i++ {
		prod.Publish("Speed", 8, nil)
	}
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prod.Publish("Speed", 8, nil)
		k.Run()
	}
}

func BenchmarkPublishDeliverHooksDisabled(b *testing.B) { benchPublishDeliver(b, false, false) }
func BenchmarkPublishDeliverObserved(b *testing.B)      { benchPublishDeliver(b, true, false) }
func BenchmarkPublishDeliverCrossECU(b *testing.B)      { benchPublishDeliver(b, false, true) }
