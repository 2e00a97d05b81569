package soa

import (
	"testing"

	"dynaplat/internal/can"
	"dynaplat/internal/obs"
	"dynaplat/internal/obs/obstest"
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

// TestObservedOfferAllocs pins the typed trace site of Offer: on an
// observed kernel a re-offer records its "offers … v… on …" line as
// interned strings and a version, so 1024 re-offers allocate only the
// trace blocks they fill.
func TestObservedOfferAllocs(t *testing.T) {
	env := &obs.Env{Observe: true}
	k := env.Kernel("offer", 1)
	mw := New(k, nil)
	mw.AddNetwork(can.New(k, can.Config{Name: "body", BitsPerSecond: 500_000}), can.MaxPayload)
	ep := mw.Endpoint("p", "ecu1")
	opts := OfferOpts{Network: "body", Version: 3}
	ep.Offer("Speed", opts)
	tr := obs.Of(k).Tracer()
	// AllocsPerRun counts the second of two calls.
	recs := 0
	a := testing.AllocsPerRun(1, func() {
		start := tr.Len()
		for i := 0; i < 1024; i++ {
			ep.Offer("Speed", opts)
		}
		recs = tr.Len() - start
	})
	if recs != 1024 {
		t.Fatalf("1024 observed offers left %d records, want 1 each", recs)
	}
	all := obstest.Records(t, tr)
	if got, want := all[len(all)-1].Name, `p offers Speed v3 on "body"`; got != want {
		t.Errorf("offer line %q, want %q", got, want)
	}
	// A trace chains one block per 256 records.
	if blocks := float64(recs/256 + 1); a > blocks {
		t.Errorf("1024 observed offers: %v allocs, want at most %v blocks", a, blocks)
	}
}
