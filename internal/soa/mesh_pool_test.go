package soa

import (
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
	"dynaplat/internal/tsn"
)

// Tests of the pooled mesh call path (mesh.go): call and RPC records
// are recycled, and a response that outlives its call must not reach
// the call that reuses its record.

// recycling reports whether network.Pool reuses records: false in a
// build with the norecycle tag, where every Get allocates and no call
// reuses another's record. The allocation pins and the record-reuse
// checks hold only when it is true; every other check of the pooled
// path tests holds in both builds, and `go test -tags norecycle` runs
// them there (scripts/verify.sh).
func recycling() bool {
	var p network.Pool[int]
	r := p.Get()
	p.Put(r)
	return p.Get() == r
}

// TestMeshCallAllocFree pins the pooled RPC path: once warm, a mesh
// call allocates nothing, with breakers on and retries taken. Every
// fourth call's first attempt times out (its handler takes 20 ms
// against a 5 ms per-try timeout), so the retry ladder, the jittered
// backoff timer, the duplicate replay of the cached response and the
// late response of the timed-out attempt all run in every window. The
// warm-up fills the per-service duplicate cache, so the window sees it
// evicting. AllocsPerRun floors its average, so the count covers 8192
// calls; as in TestPublishWithHistoryAllocFree, the pin takes the best
// of three windows against a stray allocation from outside the path
// under -race.
func TestMeshCallAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	mw := New(k, nil)
	mw.AddNetwork(tsn.New(k, tsn.DefaultConfig("backbone")), 1400)
	bc := DefaultBreakerConfig()
	ms := NewMesh(mw, MeshConfig{Breaker: &bc})
	runs := 0
	ms.Offer(mw.Endpoint("prov", "ecu1"), "svc.echo", OfferOpts{Network: "backbone",
		Handler: func(any) (int, any, sim.Duration) {
			runs++
			if runs%4 == 0 {
				return 16, nil, 20 * sim.Millisecond
			}
			return 16, nil, 50 * sim.Microsecond
		}})
	cli := mw.Endpoint("client", "ecu2")
	opts := MeshCallOpts{ReqBytes: 32, PerTry: 5 * sim.Millisecond,
		Retry: RetryPolicy{MaxAttempts: 3, Backoff: 2 * sim.Millisecond,
			JitterFrac: 0.2, Budget: 100 * sim.Millisecond}}
	served := 0
	done := func(Event) { served++ }
	call := func() {
		if err := ms.Call(cli, "svc.echo", opts, done, nil); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	const warm = servedCap + 64
	for i := 0; i < warm; i++ {
		call()
	}
	var a float64
	windows := 0
	for windows < 3 {
		windows++
		a = testing.AllocsPerRun(1, func() {
			for i := 0; i < 8192; i++ {
				call()
			}
		})
		if a == 0 {
			break
		}
	}
	if a != 0 && recycling() {
		t.Errorf("8192 warm mesh calls: %v allocs in each of 3 windows, want 0", a)
	}
	calls := warm + windows*2*8192
	if served != calls || !ms.Conserved() {
		t.Errorf("served %d of %d calls (conserved %v)", served, calls, ms.Conserved())
	}
	if ms.Timeouts != int64(calls/4) || ms.Retries != ms.Timeouts ||
		mw.DuplicatesSuppressed != ms.Timeouts {
		t.Errorf("timeouts=%d retries=%d replays=%d, want %d each",
			ms.Timeouts, ms.Retries, mw.DuplicatesSuppressed, calls/4)
	}
	if ms.BreakerTrips != 0 {
		t.Errorf("breaker tripped %d times; the timeouts must stay below its threshold", ms.BreakerTrips)
	}
}

// TestMeshLateResponseAfterRecycle: call A settles by its budget at
// 2 ms, its attempt resolves by timeout, and its record goes back to
// the pool. Call B then reuses that record. A's response, which the
// provider sends at about 5 ms, must not touch B: B's served and
// timeout counters, its edge breaker's window and its done callback
// stay as they were until B's own response arrives. Under the
// norecycle tag B gets a fresh record and A's response lands on A's
// zeroed one.
func TestMeshLateResponseAfterRecycle(t *testing.T) {
	k := sim.NewKernel(1)
	mw := New(k, nil)
	mw.AddNetwork(tsn.New(k, tsn.DefaultConfig("backbone")), 1400)
	bc := DefaultBreakerConfig()
	ms := NewMesh(mw, MeshConfig{Breaker: &bc})
	procs := []sim.Duration{5 * sim.Millisecond, 10 * sim.Millisecond}
	payloads := []string{"A", "B"}
	runs := 0
	ms.Offer(mw.Endpoint("prov", "ecu1"), "svc.echo", OfferOpts{Network: "backbone",
		Handler: func(any) (int, any, sim.Duration) {
			i := runs
			runs++
			return 16, payloads[i], procs[i]
		}})
	cli := mw.Endpoint("client", "ecu2")

	// Seed the pool with one known record, so both calls draw it.
	rec := ms.calls.Get()
	ms.calls.Put(rec)

	var got []string
	var fails []FailReason
	done := func(ev Event) { got = append(got, ev.Payload.(string)) }
	onFail := func(fr FailReason) { fails = append(fails, fr) }
	a := MeshCallOpts{ReqBytes: 32, PerTry: 5 * sim.Millisecond,
		Retry: RetryPolicy{MaxAttempts: 1, Budget: 2 * sim.Millisecond}}
	if err := ms.Call(cli, "svc.echo", a, done, onFail); err != nil {
		t.Fatal(err)
	}
	k.At(sim.Time(2500*sim.Microsecond), func() {
		if ms.DeadLettered != 1 || ms.Timeouts != 1 || rec.id != 0 {
			t.Fatalf("A: dead=%d timeouts=%d record id %d, want settled, resolved and recycled",
				ms.DeadLettered, ms.Timeouts, rec.id)
		}
		b := MeshCallOpts{Criticality: CritASILB, ReqBytes: 32, PerTry: 20 * sim.Millisecond,
			Retry: RetryPolicy{MaxAttempts: 1}}
		if err := ms.Call(cli, "svc.echo", b, done, onFail); err != nil {
			t.Fatal(err)
		}
		if recycling() && (rec.crit != CritASILB || !rec.open) {
			t.Fatal("B did not reuse A's record")
		}
	})
	br := func() *Breaker { return ms.edgeBreaker("client", "svc.echo", "prov") }
	// A's response reaches the client between 5 and 6 ms; B's after 12 ms.
	k.At(sim.Time(8*sim.Millisecond), func() {
		if runs != 2 {
			t.Fatalf("handler ran %d times by 8 ms, want 2", runs)
		}
		if len(got) != 0 || ms.Served != 0 || ms.Timeouts != 1 {
			t.Errorf("after A's late response: done=%v served=%d timeouts=%d, want none/0/1",
				got, ms.Served, ms.Timeouts)
		}
		if s, f := br().Window(); s != 1 || f != 1 || (recycling() && !rec.open) {
			t.Errorf("after A's late response: breaker window %d/%d, record open %v; want 1/1 and open", s, f, rec.open)
		}
	})
	k.Run()

	if len(got) != 1 || got[0] != "B" {
		t.Errorf("done received %v, want only B's response", got)
	}
	if len(fails) != 1 || fails[0] != FailDeadLetter {
		t.Errorf("onFail received %v, want A's dead-letter only", fails)
	}
	if s, f := br().Window(); s != 2 || f != 1 || br().State() != BreakerClosed {
		t.Errorf("breaker %v window %d/%d, want closed 2/1 (A's timeout, B's success)", br().State(), s, f)
	}
	if ms.Served != 1 || ms.DeadLettered != 1 || ms.Timeouts != 1 || !ms.Conserved() {
		t.Errorf("served=%d dead=%d timeouts=%d conserved=%v, want 1/1/1/true",
			ms.Served, ms.DeadLettered, ms.Timeouts, ms.Conserved())
	}
}
