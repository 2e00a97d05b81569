package soa

import (
	"testing"

	"dynaplat/internal/sim"
	"dynaplat/internal/tsn"
)

// Tests of the pooled CallRetry path (retry.go): a call is one recycled
// record, and a response that outlives its call must not reach the call
// that reuses its record.

// TestCallRetryAllocFree pins the pooled CallRetry: once warm, a call
// allocates nothing, retries included. Every fourth call's first
// attempt times out (its handler takes 20 ms against a 5 ms per-try
// timeout), so the jittered backoff, the duplicate replay of the cached
// response and the late response of the timed-out attempt, which lands
// on a recycled record, all run in every window. As in
// TestMeshCallAllocFree, the warm-up fills the duplicate cache, the
// count covers 8192 calls and the pin takes the best of three windows.
func TestCallRetryAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	mw := New(k, nil)
	mw.AddNetwork(tsn.New(k, tsn.DefaultConfig("backbone")), 1400)
	runs := 0
	mw.Endpoint("prov", "ecu1").Offer("svc.echo", OfferOpts{Network: "backbone",
		Handler: func(any) (int, any, sim.Duration) {
			runs++
			if runs%4 == 0 {
				return 16, nil, 20 * sim.Millisecond
			}
			return 16, nil, 50 * sim.Microsecond
		}})
	cli := mw.Endpoint("client", "ecu2")
	pol := RetryPolicy{MaxAttempts: 3, Backoff: 2 * sim.Millisecond,
		JitterFrac: 0.2, Budget: 100 * sim.Millisecond}
	served, failed := 0, 0
	done := func(Event) { served++ }
	onFail := func() { failed++ }
	call := func() {
		if err := cli.CallRetry("svc.echo", 32, nil, 5*sim.Millisecond, pol, done, onFail); err != nil {
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
		t.Errorf("8192 warm CallRetry calls: %v allocs in each of 3 windows, want 0", a)
	}
	calls := warm + windows*2*8192
	if served != calls || failed != 0 {
		t.Errorf("served %d and failed %d of %d calls", served, failed, calls)
	}
	if mw.RPCTimeouts != int64(calls/4) || mw.RetryAttempts != mw.RPCTimeouts ||
		mw.DuplicatesSuppressed != mw.RPCTimeouts || mw.RetryRecovered != mw.RPCTimeouts {
		t.Errorf("timeouts=%d retries=%d replays=%d recovered=%d, want %d each",
			mw.RPCTimeouts, mw.RetryAttempts, mw.DuplicatesSuppressed, mw.RetryRecovered, calls/4)
	}
}

// TestCallRetryLateResponseAfterRecycle: call A's only attempt times
// out at 2 ms, A settles as exhausted and its record goes back to the
// pool. Call B then reuses that record. A's response, which the
// provider sends at about 5 ms, must not serve B: B's done callback and
// the timeout, exhaustion and recovery counters stay as they were, and
// B's own timeout stays pending until B's response arrives after
// 12 ms. Under the norecycle tag B gets a fresh record and A's response
// lands on A's zeroed one.
func TestCallRetryLateResponseAfterRecycle(t *testing.T) {
	k := sim.NewKernel(1)
	mw := New(k, nil)
	mw.AddNetwork(tsn.New(k, tsn.DefaultConfig("backbone")), 1400)
	procs := []sim.Duration{5 * sim.Millisecond, 10 * sim.Millisecond}
	payloads := []string{"A", "B"}
	runs := 0
	mw.Endpoint("prov", "ecu1").Offer("svc.echo", OfferOpts{Network: "backbone",
		Handler: func(any) (int, any, sim.Duration) {
			i := runs
			runs++
			return 16, payloads[i], procs[i]
		}})
	cli := mw.Endpoint("client", "ecu2")

	// Seed the pool with one known record, so both calls draw it.
	rec := mw.retries.Get()
	mw.retries.Put(rec)

	var got []string
	fails := 0
	done := func(ev Event) { got = append(got, ev.Payload.(string)) }
	onFail := func() { fails++ }
	once := RetryPolicy{MaxAttempts: 1}
	if err := cli.CallRetry("svc.echo", 32, nil, 2*sim.Millisecond, once, done, onFail); err != nil {
		t.Fatal(err)
	}
	k.At(sim.Time(2500*sim.Microsecond), func() {
		if fails != 1 || mw.RPCTimeouts != 1 || mw.RetryExhausted != 1 || rec.id != 0 {
			t.Fatalf("A: fails=%d timeouts=%d exhausted=%d record id %d, want settled and recycled",
				fails, mw.RPCTimeouts, mw.RetryExhausted, rec.id)
		}
		if err := cli.CallRetry("svc.echo", 32, nil, 20*sim.Millisecond, once, done, onFail); err != nil {
			t.Fatal(err)
		}
		if recycling() && (rec.id == 0 || rec.perTry != 20*sim.Millisecond) {
			t.Fatal("B did not reuse A's record")
		}
	})
	// A's response reaches the client between 5 and 6 ms; B's after 12 ms.
	k.At(sim.Time(8*sim.Millisecond), func() {
		if runs != 2 {
			t.Fatalf("handler ran %d times by 8 ms, want 2", runs)
		}
		if len(got) != 0 || mw.RPCTimeouts != 1 || mw.RetryExhausted != 1 || mw.RetryRecovered != 0 {
			t.Errorf("after A's late response: done=%v timeouts=%d exhausted=%d recovered=%d, want none/1/1/0",
				got, mw.RPCTimeouts, mw.RetryExhausted, mw.RetryRecovered)
		}
		if recycling() && !rec.timer.Pending() {
			t.Error("after A's late response: B's timeout is no longer pending")
		}
	})
	k.Run()

	if len(got) != 1 || got[0] != "B" {
		t.Errorf("done received %v, want only B's response", got)
	}
	if fails != 1 || mw.RPCTimeouts != 1 || mw.RetryExhausted != 1 || mw.RetryRecovered != 0 {
		t.Errorf("fails=%d timeouts=%d exhausted=%d recovered=%d, want 1/1/1/0",
			fails, mw.RPCTimeouts, mw.RetryExhausted, mw.RetryRecovered)
	}
}
