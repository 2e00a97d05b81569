package soa

import (
	"testing"

	"dynaplat/internal/sim"
	"dynaplat/internal/tsn"
)

// BenchmarkMeshCallCrossECU times one mesh RPC, circuit breakers on,
// from a client to a provider instance on another ECU over a TSN
// backbone: routing over the breaker edge, admission, both wire legs
// and the response.
//
//	go test -run '^$' -bench MeshCallCrossECU -benchmem ./internal/soa/
func BenchmarkMeshCallCrossECU(b *testing.B) {
	k := sim.NewKernel(1)
	mw := New(k, nil)
	mw.AddNetwork(tsn.New(k, tsn.DefaultConfig("backbone")), 1400)
	bc := DefaultBreakerConfig()
	ms := NewMesh(mw, MeshConfig{Breaker: &bc})
	ms.Offer(mw.Endpoint("prov", "ecu1"), "svc.echo", OfferOpts{Network: "backbone",
		Handler: func(any) (int, any, sim.Duration) { return 16, nil, 50 * sim.Microsecond }})
	cli := mw.Endpoint("client", "ecu2")
	opts := MeshCallOpts{ReqBytes: 32, PerTry: 5 * sim.Millisecond, Retry: RetryPolicy{MaxAttempts: 1}}
	served := 0
	done := func(Event) { served++ }
	call := func() {
		if err := ms.Call(cli, "svc.echo", opts, done, nil); err != nil {
			b.Fatal(err)
		}
		k.Run()
	}
	for i := 0; i < 64; i++ {
		call()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
	b.StopTimer()
	if served != 64+b.N {
		b.Fatalf("served %d of %d calls", served, 64+b.N)
	}
}
