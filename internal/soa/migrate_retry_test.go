package soa

import (
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
	"dynaplat/internal/tsn"
)

// Satellite: Endpoint.Migrate of an RPC provider mid-CallRetry. The
// reconfig orchestrator re-homes providers while clients may be inside a
// retry ladder; the session-keyed dedupe cache is per *service*, not per
// ECU, so a retried request reaching the provider's new home must never
// re-execute the handler when the original request was already served.

// dropNet wraps a network and silently discards every message addressed
// to a station in dropDst — a deterministic stand-in for one-way loss
// (e.g. only the response leg of an RPC disappearing).
type dropNet struct {
	inner   network.Network
	dropDst map[string]bool
	dropped int
}

func (d *dropNet) Name() string                               { return d.inner.Name() }
func (d *dropNet) Attach(station string, rx network.Receiver) { d.inner.Attach(station, rx) }
func (d *dropNet) Send(msg network.Message) {
	if d.dropDst[msg.Dst] {
		d.dropped++
		return
	}
	d.inner.Send(msg)
}

type migrateRig struct {
	k           *sim.Kernel
	mw          *Middleware
	dn          *dropNet
	srv, cli    *Endpoint
	handlerRuns int
}

func newMigrateRig(seed uint64) *migrateRig {
	k := sim.NewKernel(seed)
	dn := &dropNet{
		inner:   tsn.New(k, tsn.DefaultConfig("backbone")),
		dropDst: map[string]bool{},
	}
	mw := New(k, nil)
	mw.AddNetwork(dn, 1400)
	r := &migrateRig{k: k, mw: mw, dn: dn}
	r.srv = mw.Endpoint("server", "ecu1")
	r.cli = mw.Endpoint("client", "ecu2")
	r.srv.Offer("cfg.get", OfferOpts{Network: "backbone",
		Handler: func(any) (int, any, sim.Duration) {
			r.handlerRuns++
			return 16, "v42", 100 * sim.Microsecond
		}})
	return r
}

// noJitterPolicy keeps the retry schedule exact so the test can place
// the migration precisely between the first timeout and the retry.
func noJitterPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, Backoff: 2 * sim.Millisecond}
}

// TestMigrateMidRetryResponseLost: the first request is delivered and
// served, but the response is lost; the provider migrates before the
// retry. The duplicate request must hit the served-session cache at the
// provider's new home — handler exactly once, response replayed.
func TestMigrateMidRetryResponseLost(t *testing.T) {
	r := newMigrateRig(7)
	// Requests to ecu1 pass; responses back to the client are dropped.
	r.dn.dropDst["ecu2"] = true

	var got []Event
	failed := false
	err := r.cli.CallRetry("cfg.get", 32, nil, 5*sim.Millisecond, noJitterPolicy(),
		func(ev Event) { got = append(got, ev) }, func() { failed = true })
	if err != nil {
		t.Fatal(err)
	}

	// Attempt 1 times out at 5 ms; the retry fires at 7 ms. In between,
	// heal the wire and migrate the provider to a brand-new ECU — the
	// exact window a reconfig re-placement hits a mid-flight call.
	r.k.At(sim.Time(6*sim.Millisecond), func() {
		delete(r.dn.dropDst, "ecu2")
		r.srv.Migrate("ecu3")
	})
	r.k.Run()

	if failed || len(got) != 1 {
		t.Fatalf("done=%d failed=%v, want exactly one response", len(got), failed)
	}
	if got[0].Payload != "v42" {
		t.Errorf("payload = %v, want replay of the original response", got[0].Payload)
	}
	if r.handlerRuns != 1 {
		t.Errorf("handler ran %d times across the migration, want exactly 1", r.handlerRuns)
	}
	if r.mw.DuplicatesSuppressed != 1 {
		t.Errorf("DuplicatesSuppressed = %d, want 1 (retry served from cache)",
			r.mw.DuplicatesSuppressed)
	}
	if r.mw.RPCTimeouts != 1 || r.mw.RetryAttempts != 1 || r.mw.RetryRecovered != 1 {
		t.Errorf("timeouts=%d attempts=%d recovered=%d, want 1/1/1",
			r.mw.RPCTimeouts, r.mw.RetryAttempts, r.mw.RetryRecovered)
	}
	if r.dn.dropped == 0 {
		t.Error("loss injection inert — the first response was never dropped")
	}
	if !r.mw.attached("backbone", "ecu3") {
		t.Error("migrated provider's station not attached")
	}
}

// TestMigrateMidRetryRequestLost: the mirror case — the first *request*
// never reaches the provider, so nothing was served before the
// migration. The retry re-resolves the provider at its new home and the
// handler runs there exactly once, with no duplicate to suppress.
func TestMigrateMidRetryRequestLost(t *testing.T) {
	r := newMigrateRig(7)
	// Drop the request leg: nothing addressed to the provider arrives.
	r.dn.dropDst["ecu1"] = true

	var got []Event
	failed := false
	err := r.cli.CallRetry("cfg.get", 32, nil, 5*sim.Millisecond, noJitterPolicy(),
		func(ev Event) { got = append(got, ev) }, func() { failed = true })
	if err != nil {
		t.Fatal(err)
	}
	r.k.At(sim.Time(6*sim.Millisecond), func() {
		delete(r.dn.dropDst, "ecu1")
		r.srv.Migrate("ecu3")
	})
	r.k.Run()

	if failed || len(got) != 1 {
		t.Fatalf("done=%d failed=%v, want exactly one response", len(got), failed)
	}
	if r.handlerRuns != 1 {
		t.Errorf("handler ran %d times, want exactly 1 (at the new home)", r.handlerRuns)
	}
	if r.mw.DuplicatesSuppressed != 0 {
		t.Errorf("DuplicatesSuppressed = %d, want 0 (original request was lost)",
			r.mw.DuplicatesSuppressed)
	}
	if r.mw.RetryRecovered != 1 {
		t.Errorf("RetryRecovered = %d, want 1", r.mw.RetryRecovered)
	}
}
