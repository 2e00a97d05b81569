package faults

import (
	"testing"

	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/tsn"
)

// Satellite: RPC behaviour over a faulty network. The SOA middleware
// rides a TSN backbone wrapped in the fault interceptor, so CallRetry,
// with one attempt and with several, faces real injected frame loss —
// not a mocked provider.

type rpcRig struct {
	k           *sim.Kernel
	mw          *soa.Middleware
	nf          *NetFaults
	srv, cli    *soa.Endpoint
	handlerRuns int
}

func newRPCRig(seed uint64, cfg NetConfig) *rpcRig {
	k := sim.NewKernel(seed)
	nf := WrapNetwork(k, tsn.New(k, tsn.DefaultConfig("backbone")), cfg)
	mw := soa.New(k, nil)
	mw.AddNetwork(nf, 1400)
	r := &rpcRig{k: k, mw: mw, nf: nf}
	r.srv = mw.Endpoint("server", "ecu1")
	r.cli = mw.Endpoint("client", "ecu2")
	r.srv.Offer("diag.cfg", soa.OfferOpts{Network: "backbone",
		Handler: func(any) (int, any, sim.Duration) {
			r.handlerRuns++
			return 16, "ok", 100 * sim.Microsecond
		}})
	return r
}

// TestCallTimeoutUnderFrameLoss: with a single attempt, a lost request or
// response surfaces as a timeout that fires exactly at the configured
// bound — never earlier, never hangs.
func TestCallTimeoutUnderFrameLoss(t *testing.T) {
	r := newRPCRig(31, NetConfig{LossRate: 0.3})
	const calls = 200
	const bound = 20 * sim.Millisecond
	answered, timedOut := 0, 0
	for i := 0; i < calls; i++ {
		i := i
		issue := sim.Time(i) * sim.Time(sim.Millisecond) * 50
		r.k.At(issue, func() {
			err := r.cli.CallRetry("diag.cfg", 64, i, bound, soa.RetryPolicy{MaxAttempts: 1},
				func(soa.Event) { answered++ },
				func() {
					timedOut++
					if at := r.k.Now().Sub(issue); at != bound {
						t.Errorf("call %d timed out after %v, want %v", i, at, bound)
					}
				})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		})
	}
	r.k.Run()
	if timedOut == 0 {
		t.Fatal("30% loss produced no timeouts")
	}
	if answered+timedOut != calls {
		t.Errorf("answered %d + timedOut %d != %d (a call neither settled nor timed out)",
			answered, timedOut, calls)
	}
	if r.mw.RPCTimeouts != int64(timedOut) {
		t.Errorf("RPCTimeouts = %d, observed %d", r.mw.RPCTimeouts, timedOut)
	}
	// Each timeout means a frame was lost on the way out or back.
	if r.nf.FramesDropped == 0 {
		t.Error("loss injection inert")
	}
}

// TestCallRetryRecoversWithoutDuplicates: with the retry policy on the
// same lossy channel, nearly all calls recover — and session-keyed
// dedupe keeps the handler at most-once per logical call even when the
// request was delivered and only the response was lost.
func TestCallRetryRecoversWithoutDuplicates(t *testing.T) {
	r := newRPCRig(31, NetConfig{LossRate: 0.3})
	const calls = 200
	pol := soa.RetryPolicy{MaxAttempts: 6, Backoff: 2 * sim.Millisecond,
		MaxBackoff: 16 * sim.Millisecond, JitterFrac: 0.2}
	done, failed := 0, 0
	for i := 0; i < calls; i++ {
		i := i
		r.k.At(sim.Time(i)*sim.Time(sim.Millisecond)*50, func() {
			err := r.cli.CallRetry("diag.cfg", 64, i, 20*sim.Millisecond, pol,
				func(soa.Event) { done++ }, func() { failed++ })
			if err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		})
	}
	r.k.Run()
	if done+failed != calls {
		t.Fatalf("done %d + failed %d != %d", done, failed, calls)
	}
	if r.mw.RetryRecovered == 0 {
		t.Error("no call recovered via retry under 30% loss")
	}
	// p(fail) ~ 0.51^6 per call: expect ~0-2 exhausted, certainly < 10%.
	if failed > calls/10 {
		t.Errorf("retries exhausted on %d/%d calls", failed, calls)
	}
	if done < calls*9/10 {
		t.Errorf("only %d/%d calls succeeded with retries", done, calls)
	}
	// Idempotency: the handler never runs twice for one logical call.
	if r.handlerRuns > calls {
		t.Errorf("handler ran %d times for %d logical calls (duplicate execution)",
			r.handlerRuns, calls)
	}
	// Under 30% loss some retransmitted requests must have reached a
	// provider that had already served the session.
	if r.mw.DuplicatesSuppressed == 0 {
		t.Error("no duplicate suppressed — dedupe path unexercised")
	}
	if int64(r.handlerRuns)+r.mw.DuplicatesSuppressed < int64(done) {
		t.Errorf("handler runs %d + suppressed %d < successes %d",
			r.handlerRuns, r.mw.DuplicatesSuppressed, done)
	}
}

// TestRetryBudgetBoundsCall: a budget shorter than the backoff ladder
// caps the whole call even when attempts remain.
func TestRetryBudgetBoundsCall(t *testing.T) {
	r := newRPCRig(5, NetConfig{LossRate: 0.999999}) // clamps to 0... use partition instead
	r.nf.SetConfig(NetConfig{})
	r.nf.Partition("ecu1") // provider unreachable: every attempt times out
	pol := soa.RetryPolicy{MaxAttempts: 100, Backoff: 2 * sim.Millisecond,
		MaxBackoff: 16 * sim.Millisecond, JitterFrac: 0.2, Budget: 50 * sim.Millisecond}
	start := r.k.Now()
	var failedAt sim.Time
	err := r.cli.CallRetry("diag.cfg", 64, nil, 10*sim.Millisecond, pol,
		func(soa.Event) { t.Error("call to partitioned provider succeeded") },
		func() { failedAt = r.k.Now() })
	if err != nil {
		t.Fatal(err)
	}
	r.k.Run()
	if failedAt == 0 {
		t.Fatal("budgeted call never settled")
	}
	if got := failedAt.Sub(start); got > pol.Budget {
		t.Errorf("call settled after %v, budget %v", got, pol.Budget)
	}
	if r.mw.RetryExhausted != 1 {
		t.Errorf("RetryExhausted = %d", r.mw.RetryExhausted)
	}
}
