package soa

import (
	"testing"

	"dynaplat/internal/sim"
)

// Regression tests for the History × SubscribeReliable interaction: a
// late joiner that receives retained history must not flag those
// courtesy samples as a wire gap, and a superseded provider must not
// burn sequence numbers (which made the retained history
// non-consecutive and produced exactly that spurious gap).

// Late joiner with History=3 on a 6-sample backlog, then live traffic.
// The replayed samples (3,4,5) precede the live ones (6,7,8); none of
// this is a gap.
func TestReliableLateJoinerHistoryNoSpuriousGap(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("p", "ecu1")
	prod.Offer("Wheel", OfferOpts{Network: "backbone"})
	if err := prod.EnableHistory("Wheel", 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		prod.PublishSeq("Wheel", 8, i)
	}
	r.k.Run()
	cons := r.mw.Endpoint("c", "ecu2")
	var seqs []uint32
	rs, err := cons.SubscribeReliable("Wheel", QoS{History: 3}, func(ev Event) {
		seqs = append(seqs, ev.Seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	for i := 6; i < 9; i++ {
		prod.PublishSeq("Wheel", 8, i)
		r.k.Run()
	}
	want := []uint32{3, 4, 5, 6, 7, 8}
	if len(seqs) != len(want) {
		t.Fatalf("seqs = %v, want %v", seqs, want)
	}
	for i, s := range seqs {
		if s != want[i] {
			t.Fatalf("seqs = %v, want %v", seqs, want)
		}
	}
	if rs.Gaps != 0 || rs.Missing != 0 || rs.Unrecoverable != 0 {
		t.Errorf("spurious gap: gaps=%d missing=%d unrecoverable=%d, want 0/0/0",
			rs.Gaps, rs.Missing, rs.Unrecoverable)
	}
	if r.mw.SeqGaps != 0 {
		t.Errorf("middleware SeqGaps = %d, want 0", r.mw.SeqGaps)
	}
}

// Pre-fix: PublishSeq advanced svc.pubSeq even when publish() dropped
// the sample as a stale publication, so a staged update in which the old
// provider kept publishing left sequence holes in the retained history —
// and a late joiner's reliable subscription misread the hole as frame
// loss, issuing spurious (unrecoverable) re-requests.
func TestStalePublishSeqDoesNotBurnSequence(t *testing.T) {
	r := newRig(nil)
	prodA := r.mw.Endpoint("pA", "ecu1")
	prodA.Offer("Pos", OfferOpts{Network: "backbone"})
	if err := prodA.EnableHistory("Pos", 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		prodA.PublishSeq("Pos", 8, i) // seqs 0,1,2
	}
	r.k.Run()
	// Staged update: B takes the offer over; stale A keeps publishing
	// during the redirect window.
	prodB := r.mw.Endpoint("pB", "ecu1")
	prodB.Offer("Pos", OfferOpts{Network: "backbone"})
	if got := prodA.PublishSeq("Pos", 8, nil); got != 0 {
		t.Errorf("stale PublishSeq returned seq %d, want 0", got)
	}
	prodA.PublishSeq("Pos", 8, nil) // dropped too
	seqB := prodB.PublishSeq("Pos", 8, nil)
	if seqB != 3 {
		t.Errorf("first post-takeover seq = %d, want 3 (stale publishes burned numbers)", seqB)
	}
	r.k.Run()
	if r.mw.StalePublishes != 2 {
		t.Errorf("StalePublishes = %d, want 2", r.mw.StalePublishes)
	}
	// Late joiner with History=3, then live traffic: consecutive, no gap.
	cons := r.mw.Endpoint("c", "ecu2")
	var seqs []uint32
	rs, err := cons.SubscribeReliable("Pos", QoS{History: 3}, func(ev Event) {
		seqs = append(seqs, ev.Seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	prodB.PublishSeq("Pos", 8, nil)
	r.k.Run()
	want := []uint32{1, 2, 3, 4}
	if len(seqs) != len(want) {
		t.Fatalf("seqs = %v, want %v", seqs, want)
	}
	for i, s := range seqs {
		if s != want[i] {
			t.Fatalf("seqs = %v, want %v", seqs, want)
		}
	}
	if rs.Gaps != 0 || rs.Missing != 0 || rs.Unrecoverable != 0 {
		t.Errorf("spurious gap on stale-provider history: gaps=%d missing=%d unrecoverable=%d",
			rs.Gaps, rs.Missing, rs.Unrecoverable)
	}
}

// The subscription-time sequence anchor also closes a blind spot: a
// sample lost between subscription and the first delivery is now
// detected (previously the first delivered sample silently initialized
// the tracker past the hole).
func TestReliableDetectsLossBeforeFirstDelivery(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("p", "ecu1")
	prod.Offer("Yaw", OfferOpts{Network: "backbone"})
	if err := prod.EnableHistory("Yaw", 4); err != nil {
		t.Fatal(err)
	}
	prod.PublishSeq("Yaw", 8, nil) // seq 0, no subscriber yet
	r.k.Run()
	cons := r.mw.Endpoint("c", "ecu2")
	rs, err := cons.SubscribeReliable("Yaw", QoS{}, func(Event) {})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a lost first sample: the provider publishes seq 1 while
	// the consumer's subscription is suppressed, then seq 2 normally.
	r.suppress("Yaw", func() {
		prod.PublishSeq("Yaw", 8, nil) // seq 1, lost
	})
	prod.PublishSeq("Yaw", 8, nil) // seq 2
	r.k.Run()
	if rs.Gaps != 1 || rs.Missing != 1 {
		t.Errorf("gaps=%d missing=%d, want 1/1 (loss before first delivery undetected)", rs.Gaps, rs.Missing)
	}
	if rs.Recovered != 1 {
		t.Errorf("recovered=%d, want 1 (history re-request should back-fill)", rs.Recovered)
	}
}

// Satellite: Endpoint.Migrate must carry QoS state with the endpoint —
// retained history and live sequence numbering follow a migrating
// provider, and deadline supervision plus middleware counters follow a
// migrating consumer.
func TestMigrateProviderKeepsHistoryAndSequence(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("p", "ecu1")
	prod.Offer("Map", OfferOpts{Network: "backbone"})
	if err := prod.EnableHistory("Map", 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		prod.PublishSeq("Map", 8, i)
	}
	r.k.Run()
	prod.Migrate("ecu3")
	// Sequence numbering continues across the migration.
	if seq := prod.PublishSeq("Map", 8, nil); seq != 3 {
		t.Errorf("post-migrate seq = %d, want 3", seq)
	}
	r.k.Run()
	// A late joiner still receives the retained history (published from
	// the pre-migration ECU) plus live traffic, gap-free.
	cons := r.mw.Endpoint("c", "ecu2")
	var seqs []uint32
	rs, err := cons.SubscribeReliable("Map", QoS{History: 3}, func(ev Event) {
		seqs = append(seqs, ev.Seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	prod.PublishSeq("Map", 8, nil)
	r.k.Run()
	want := []uint32{1, 2, 3, 4}
	if len(seqs) != len(want) {
		t.Fatalf("seqs = %v, want %v", seqs, want)
	}
	for i, s := range seqs {
		if s != want[i] {
			t.Fatalf("seqs = %v, want %v", seqs, want)
		}
	}
	if rs.Gaps != 0 {
		t.Errorf("gaps = %d after provider migration, want 0", rs.Gaps)
	}
}

func TestMigrateConsumerKeepsDeadlineSupervision(t *testing.T) {
	r := newRig(nil)
	prod := r.mw.Endpoint("p", "ecu1")
	prod.Offer("Speed", OfferOpts{Network: "backbone"})
	cons := r.mw.Endpoint("c", "ecu2")
	misses := 0
	delivered := 0
	if err := cons.SubscribeQoS("Speed", QoS{
		Deadline:       20 * sim.Millisecond,
		OnDeadlineMiss: func(string, sim.Duration) { misses++ },
	}, func(Event) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	// Regular traffic, then migrate the consumer and stop publishing:
	// supervision must keep firing misses for the migrated endpoint.
	pub := r.k.Every(0, 10*sim.Millisecond, func() {
		if r.k.Now() < sim.Time(100*sim.Millisecond) {
			prod.Publish("Speed", 8, nil)
		}
	})
	r.k.RunUntil(sim.Time(100 * sim.Millisecond))
	if misses != 0 {
		t.Fatalf("misses during regular traffic = %d, want 0", misses)
	}
	preDelivered := delivered
	if preDelivered == 0 {
		t.Fatal("no deliveries before migration")
	}
	cons.Migrate("ecu3")
	r.k.RunUntil(sim.Time(200 * sim.Millisecond))
	if misses == 0 {
		t.Error("deadline supervision stopped following the migrated consumer")
	}
	if r.mw.QoSDeadlineMisses != int64(misses) {
		t.Errorf("middleware QoSDeadlineMisses = %d, want %d", r.mw.QoSDeadlineMisses, misses)
	}
	// Traffic resumes: deliveries reach the consumer on its new ECU.
	// (RunUntil, not Run: the deadline supervision re-arms forever.)
	pub.Stop()
	prod.Publish("Speed", 8, nil)
	r.k.RunUntil(sim.Time(210 * sim.Millisecond))
	if delivered != preDelivered+1 {
		t.Errorf("delivered = %d after resume, want %d (event did not follow migration)",
			delivered, preDelivered+1)
	}
}
