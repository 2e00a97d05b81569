package sim

// Micro-benchmarks for the kernel hot path. These guard the 4-ary-heap +
// event-pool rewrite: schedule/fire should be allocation-free in steady
// state (the kernel is warmed before the timer starts), and the other
// three cover the cancel-heavy, ticker-heavy and mixed regimes that the
// bus simulators and platform scheduler actually produce.
//
//	go test -run '^$' -bench 'Schedule|Cancel|Ticker|Mixed' -benchmem ./internal/sim/

import "testing"

// warmKernel returns a kernel whose event pool and queue backing array
// have been warmed so that steady-state scheduling does not allocate.
func warmKernel(prefill int) *Kernel {
	k := NewKernel(1)
	refs := make([]EventRef, 0, prefill)
	for i := 0; i < prefill; i++ {
		refs = append(refs, k.At(Time(i+1), func() {}))
	}
	for _, r := range refs {
		r.Cancel()
	}
	k.Run() // drain; every slot returns to the pool
	return k
}

// BenchmarkScheduleFire measures the pure schedule→fire cycle: a chain of
// events where each handler schedules its successor. Steady state must be
// zero allocs/op.
func BenchmarkScheduleFire(b *testing.B) {
	k := warmKernel(64)
	var step func()
	n := 0
	step = func() {
		n++
		if n < 1000 {
			k.After(10, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		k.At(k.Now(), step)
		k.Run()
	}
	b.ReportMetric(1000, "events/op")
}

// BenchmarkCancelHeavy schedules a batch and cancels 90% of it before
// running — the pattern of retransmit timers and watchdogs that are
// almost always disarmed. Exercises lazy removal + compaction.
func BenchmarkCancelHeavy(b *testing.B) {
	const batch = 1000
	k := warmKernel(batch + 8)
	refs := make([]EventRef, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := k.Now()
		for j := 0; j < batch; j++ {
			refs[j] = k.At(base.Add(Duration(j+1)), func() {})
		}
		for j := 0; j < batch; j++ {
			if j%10 != 0 {
				refs[j].Cancel()
			}
		}
		k.Run()
	}
}

// BenchmarkTickerHeavy drives 32 periodic tickers — the clock-driven
// dispatch pattern of the TT scheduler and the bus simulators. The ticker
// re-arm fast path makes this allocation-free in steady state.
func BenchmarkTickerHeavy(b *testing.B) {
	k := warmKernel(64)
	tickers := make([]*Ticker, 32)
	for i := range tickers {
		tickers[i] = k.Every(k.Now().Add(Duration(i+1)), Duration(50+i), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(10_000)
	}
	b.StopTimer()
	for _, t := range tickers {
		t.Stop()
	}
}

// BenchmarkTickerHeavy1024 scales the periodic regime to 1024 tickers —
// the density of a consolidated full-vehicle platform (every control
// loop, bus slot and heartbeat on one kernel). Each re-arm pays an
// O(log 1024) sift: the heap's worst regime.
func BenchmarkTickerHeavy1024(b *testing.B) {
	k := warmKernel(2048)
	tickers := make([]*Ticker, 1024)
	for i := range tickers {
		tickers[i] = k.Every(k.Now().Add(Duration(i+1)), Duration(500+i), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(10_000)
	}
	b.StopTimer()
	for _, t := range tickers {
		t.Stop()
	}
}

// BenchmarkMixed interleaves chained one-shots, cancels and tickers in
// the proportions a full-vehicle simulation produces.
func BenchmarkMixed(b *testing.B) {
	k := warmKernel(256)
	for i := 0; i < 8; i++ {
		k.Every(k.Now().Add(Duration(i+1)), Duration(97+i), func() {})
	}
	var pending []EventRef
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := k.Now()
		pending = pending[:0]
		for j := 0; j < 200; j++ {
			d := Duration(k.RNG().Range(1, 500))
			pending = append(pending, k.At(base.Add(d), func() {}))
		}
		for j, r := range pending {
			if j%3 != 0 {
				r.Cancel()
			}
		}
		k.RunFor(600)
	}
}

// TestScheduleFireZeroAllocSteadyState is the hard form of
// BenchmarkScheduleFire's allocs/op report: with tracing disabled (the
// default), a warmed kernel's schedule→fire cycle must not allocate.
// This pins the contract the observability hooks rely on — an
// uninstrumented kernel pays only nil checks, never allocations.
func TestScheduleFireZeroAllocSteadyState(t *testing.T) {
	k := warmKernel(64)
	var step func()
	n := 0
	step = func() {
		n++
		if n < 100 {
			k.After(10, step)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		n = 0
		k.At(k.Now(), step)
		k.Run()
	}); allocs != 0 {
		t.Errorf("schedule/fire steady state allocs/op = %g, want 0", allocs)
	}
}
