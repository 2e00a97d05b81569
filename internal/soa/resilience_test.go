package soa

import "testing"

// TestPublishAfterMigrate is the regression test for Migrate eagerly
// attaching the destination station: a provider moved to an ECU the
// middleware has never seen must answer immediately — its station is on
// the wire the moment Migrate returns, not after a first lazy transfer.
func TestPublishAfterMigrate(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("producer", "ecu1")
	cons := r.mw.Endpoint("consumer", "ecu2")
	prod.Offer("Pos", OfferOpts{Network: "backbone"})
	var got []Event
	if err := cons.Subscribe("Pos", func(ev Event) { got = append(got, ev) }); err != nil {
		t.Fatal(err)
	}
	prod.Publish("Pos", 16, "before")
	r.k.Run()
	if len(got) != 1 {
		t.Fatalf("pre-migrate events = %d", len(got))
	}

	// Migrate to a brand-new ECU and publish right away.
	prod.Migrate("ecu9")
	if !r.mw.attached("backbone", "ecu9") {
		t.Error("destination station not attached by Migrate")
	}
	prod.Publish("Pos", 16, "after")
	r.k.Run()
	if len(got) != 2 {
		t.Fatalf("post-migrate events = %d, want 2", len(got))
	}
	if got[1].Payload != "after" {
		t.Errorf("payload = %v", got[1].Payload)
	}
}

// TestPublishSeqNumbering: PublishSeq stamps consecutive sequence
// numbers per interface.
func TestPublishSeqNumbering(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("producer", "ecu1")
	cons := r.mw.Endpoint("consumer", "ecu1")
	prod.Offer("Odo", OfferOpts{})
	var seqs []uint32
	if err := cons.Subscribe("Odo", func(ev Event) { seqs = append(seqs, ev.Seq) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := prod.PublishSeq("Odo", 8, nil); got != uint32(i) {
			t.Errorf("PublishSeq returned %d, want %d", got, i)
		}
	}
	r.k.Run()
	for i, s := range seqs {
		if s != uint32(i) {
			t.Errorf("delivered seq[%d] = %d", i, s)
		}
	}
}

// suppress hides the interface's subscribers for the duration of fn:
// publications still happen (and land in history) but nothing is
// delivered — a deterministic stand-in for wire loss.
func (r *testRig) suppress(iface string, fn func()) {
	svc := r.mw.svcs[iface]
	saved := svc.subs
	svc.subs = nil
	fn()
	svc.subs = saved
}

// TestReliableSubDetectsGapWithoutReRequest: the provider keeps no
// history, so the gap's re-request comes back empty and every missing
// event counts as unrecoverable.
func TestReliableSubDetectsGapWithoutReRequest(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("producer", "ecu1")
	cons := r.mw.Endpoint("consumer", "ecu2")
	prod.Offer("Pos", OfferOpts{Network: "backbone"})
	var fresh int
	rs, err := cons.SubscribeReliable("Pos", QoS{}, func(ev Event) { fresh++ })
	if err != nil {
		t.Fatal(err)
	}
	prod.PublishSeq("Pos", 8, nil)
	r.k.Run()
	r.suppress("Pos", func() {
		prod.PublishSeq("Pos", 8, nil) // seq 1, lost
		prod.PublishSeq("Pos", 8, nil) // seq 2, lost
	})
	prod.PublishSeq("Pos", 8, nil) // seq 3
	r.k.Run()
	if fresh != 2 {
		t.Errorf("fresh deliveries = %d, want 2", fresh)
	}
	if rs.Gaps != 1 || rs.Missing != 2 {
		t.Errorf("gaps=%d missing=%d, want 1/2", rs.Gaps, rs.Missing)
	}
	if rs.Unrecoverable != 2 || rs.Recovered != 0 {
		t.Errorf("unrecoverable=%d recovered=%d, want 2/0", rs.Unrecoverable, rs.Recovered)
	}
	if r.mw.SeqGaps != 1 || r.mw.GapEventsUnrecoverable != 2 {
		t.Errorf("middleware counters: gaps=%d unrecoverable=%d",
			r.mw.SeqGaps, r.mw.GapEventsUnrecoverable)
	}
}

func TestReliableSubReRequestsFromHistory(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("producer", "ecu1")
	cons := r.mw.Endpoint("consumer", "ecu2")
	prod.Offer("Pos", OfferOpts{Network: "backbone"})
	if err := prod.EnableHistory("Pos", 8); err != nil {
		t.Fatal(err)
	}
	var fresh, recovered []uint32
	rs, err := cons.SubscribeReliable("Pos", QoS{}, func(ev Event) {
		if ev.Recovered {
			recovered = append(recovered, ev.Seq)
		} else {
			fresh = append(fresh, ev.Seq)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	prod.PublishSeq("Pos", 8, nil) // seq 0
	r.k.Run()
	r.suppress("Pos", func() {
		prod.PublishSeq("Pos", 8, nil) // seq 1, lost but retained
		prod.PublishSeq("Pos", 8, nil) // seq 2, lost but retained
	})
	prod.PublishSeq("Pos", 8, nil) // seq 3: triggers re-request
	r.k.Run()
	if len(fresh) != 2 || fresh[0] != 0 || fresh[1] != 3 {
		t.Fatalf("fresh = %v", fresh)
	}
	if len(recovered) != 2 || recovered[0] != 1 || recovered[1] != 2 {
		t.Fatalf("recovered = %v, want [1 2]", recovered)
	}
	if rs.Recovered != 2 || rs.Unrecoverable != 0 {
		t.Errorf("recovered=%d unrecoverable=%d", rs.Recovered, rs.Unrecoverable)
	}
	if r.mw.GapEventsRecovered != 2 {
		t.Errorf("middleware GapEventsRecovered = %d", r.mw.GapEventsRecovered)
	}
}

// TestReliableSubPartialRecovery: when the provider's history is too
// shallow for the whole gap, the found tail is recovered and the rest is
// counted unrecoverable — nothing is silently dropped.
func TestReliableSubPartialRecovery(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("producer", "ecu1")
	cons := r.mw.Endpoint("consumer", "ecu2")
	prod.Offer("Pos", OfferOpts{Network: "backbone"})
	// Retain 3: by the time the gap-exposing seq 5 is published, history
	// holds [3 4 5] — seqs 1 and 2 are gone for good.
	if err := prod.EnableHistory("Pos", 3); err != nil {
		t.Fatal(err)
	}
	rs, err := cons.SubscribeReliable("Pos", QoS{}, func(Event) {})
	if err != nil {
		t.Fatal(err)
	}
	prod.PublishSeq("Pos", 8, nil) // seq 0
	r.k.Run()
	r.suppress("Pos", func() {
		for i := 0; i < 4; i++ { // seqs 1..4 lost
			prod.PublishSeq("Pos", 8, nil)
		}
	})
	prod.PublishSeq("Pos", 8, nil) // seq 5
	r.k.Run()
	if rs.Missing != 4 {
		t.Fatalf("missing = %d", rs.Missing)
	}
	if rs.Recovered != 2 || rs.Unrecoverable != 2 {
		t.Errorf("recovered=%d unrecoverable=%d, want 2/2 (history holds [3 4 5])",
			rs.Recovered, rs.Unrecoverable)
	}
}
