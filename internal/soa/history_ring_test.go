package soa

import (
	"fmt"
	"testing"

	"dynaplat/internal/sim"
)

// refHistory is the retained-history model the ring replaces: append
// each publication, then keep the newest depth of them.
type refHistory struct {
	depth int
	evs   []Event
}

func (r *refHistory) publish(ev Event) {
	if r.depth == 0 {
		return
	}
	r.evs = append(r.evs, ev)
	if len(r.evs) > r.depth {
		r.evs = r.evs[len(r.evs)-r.depth:]
	}
}

// seqs renders the sequence numbers and publish times of events.
func seqs(evs []Event) string {
	out := ""
	for _, ev := range evs {
		out += fmt.Sprintf("%d@%d ", ev.Seq, ev.Published)
	}
	return out
}

// TestHistoryRingMatchesReference drives random publish sequences with
// random depth changes through both readers of the retained history —
// a late joiner's history replay (qos.go) and a reliable subscription's
// re-request (reliable.go) — and compares what each delivers with the
// append-and-trim reference.
func TestHistoryRingMatchesReference(t *testing.T) {
	rng := sim.NewRNG(24)
	for trial := 0; trial < 40; trial++ {
		k := sim.NewKernel(1)
		mw := New(k, nil)
		prod := mw.Endpoint("p", "ecu1")
		prod.Offer("Gear", OfferOpts{})
		ref := &refHistory{}
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(12); {
			case r == 0:
				depth := 1 + rng.Intn(historyCap)
				if err := prod.EnableHistory("Gear", depth); err != nil {
					t.Fatal(err)
				}
				ref.depth = depth
			case r == 1:
				// Late join asking for n samples.
				n := rng.Intn(historyCap + 2)
				cons := mw.Endpoint(fmt.Sprintf("late%d", step), "ecu1")
				var got []Event
				if err := cons.SubscribeQoS("Gear", QoS{History: n}, func(ev Event) { got = append(got, ev) }); err != nil {
					t.Fatal(err)
				}
				k.Run()
				cons.Unsubscribe("Gear")
				var want []Event
				if ref.depth > 0 {
					want = ref.evs[len(ref.evs)-min(n, len(ref.evs)):]
				}
				if seqs(got) != seqs(want) {
					t.Fatalf("trial %d step %d: late join of %d got [%s], want [%s]",
						trial, step, n, seqs(got), seqs(want))
				}
			case r == 2:
				// Re-request a random sequence window.
				from := uint32(rng.Intn(int(prod.m.svcs["Gear"].pubSeq) + 1))
				to := from + uint32(rng.Intn(historyCap+4))
				rs := &ReliableSub{ep: mw.Endpoint("rel", "ecu1"), iface: "Gear"}
				var got []Event
				rs.reRequest(from, to, func(ev Event) { got = append(got, ev) })
				k.Run()
				var want []Event
				for _, ev := range ref.evs {
					if ev.Seq >= from && ev.Seq < to {
						want = append(want, ev)
					}
				}
				if seqs(got) != seqs(want) || rs.Unrecoverable != int64(to-from)-int64(len(want)) {
					t.Fatalf("trial %d step %d: re-request [%d,%d) got [%s] (%d unrecoverable), want [%s]",
						trial, step, from, to, seqs(got), rs.Unrecoverable, seqs(want))
				}
			default:
				k.RunUntil(k.Now().Add(sim.Duration(1 + rng.Intn(1000))))
				seq := prod.PublishSeq("Gear", 8, nil)
				ref.publish(Event{Iface: "Gear", Seq: seq, Bytes: 8, Published: k.Now()})
			}
		}
	}
}

// TestPublishWithHistoryAllocFree pins the ring: once warm, a publish
// to an interface that retains history allocates nothing. AllocsPerRun
// floors its average, so the count covers 8192 publishes: a history
// that reallocates once every few publishes shows there, in every
// window. AllocsPerRun counts the whole process, and under -race a
// single allocation from outside this path has been seen to land in
// one window when the whole package runs, so the pin takes the best of
// three windows. Under the norecycle tag every delivery record is new,
// so only the delivery count is checked.
func TestPublishWithHistoryAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	mw := New(k, nil)
	prod := mw.Endpoint("p", "ecu1")
	prod.Offer("Gear", OfferOpts{})
	if err := prod.EnableHistory("Gear", historyCap); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	if err := mw.Endpoint("c", "ecu1").Subscribe("Gear", func(Event) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	publish := func() {
		prod.PublishSeq("Gear", 8, nil)
		k.Run()
	}
	for i := 0; i < 64; i++ {
		publish()
	}
	var a float64
	windows := 0
	for windows < 3 {
		windows++
		a = testing.AllocsPerRun(1, func() {
			for i := 0; i < 8192; i++ {
				publish()
			}
		})
		if a == 0 {
			break
		}
	}
	if a != 0 && recycling() {
		t.Errorf("8192 warm publishes with history: %v allocs in each of 3 windows, want 0", a)
	}
	if want := 64 + windows*2*8192; delivered != want {
		t.Errorf("delivered %d events, want %d", delivered, want)
	}
}
