package sim

// Tests for the hierarchical timing wheel (wheel.go). The load-bearing
// property is backend equivalence: a wheel-backed kernel and a heap-only
// kernel driving the same event program must produce the identical fire
// trace — same times, same order, same invariant statistics — because
// the wheel is a pure queue-implementation detail. The differential
// tests below prove it on mixed workloads that exercise every wheel
// mechanism (level-0 slots, cascades, lapped slots, slot overflow,
// cancellation, sweeps); the white-box tests pin the mechanisms
// individually.

import "testing"

// fireRec is one entry of a program's fire trace.
type fireRec struct {
	at Time
	id int
}

// runDifferentialProgram drives k through a mixed workload — tickers
// whose periods land in level-0, level-1 and level-2 wheel slots,
// randomized one-shot bursts with heavy cancellation, same-instant
// priority collisions — and returns the complete fire trace. All
// scheduling decisions derive from k's own RNG, so two kernels with the
// same seed run the same program as long as their fire orders agree
// (which is exactly what the caller asserts).
func runDifferentialProgram(k *Kernel) []fireRec {
	var trace []fireRec
	nextID := 0
	rng := k.RNG()

	// Periodic load across wheel levels at 4ns grain: periods below
	// 256ns re-arm within level 0, 256ns–16µs land in level 1–2, and
	// 70µs cascades from level 2 on every tick.
	periods := []Duration{7, 50, 63, 64, 100, 257, 1000, 4097, 70_000}
	tickers := make([]*Ticker, 0, len(periods))
	for i, p := range periods {
		id := nextID
		nextID++
		tickers = append(tickers, k.Every(k.Now().Add(Duration(i)), p, func() {
			trace = append(trace, fireRec{k.Now(), id})
		}))
	}

	// A driver ticker emits one-shot bursts with mixed priorities and
	// cancels ~40% of each burst before it fires. Cancels of
	// already-fired events are exercised too (the refs go stale).
	var pending []EventRef
	driverID := nextID
	nextID++
	driver := k.Every(0, 500, func() {
		trace = append(trace, fireRec{k.Now(), driverID})
		for j := 0; j < 20; j++ {
			id := nextID
			nextID++
			d := Duration(rng.Range(1, 3000))
			prio := PriorityNormal
			switch j % 5 {
			case 1:
				prio = PriorityClock
			case 3:
				prio = PriorityLate
			}
			pending = append(pending, k.AtPriority(k.Now().Add(d), prio, func() {
				trace = append(trace, fireRec{k.Now(), id})
			}))
		}
		for j := range pending {
			if rng.Bool(0.4) {
				pending[j].Cancel()
			}
		}
		pending = pending[:0]
	})

	k.RunFor(20_000)
	for _, t := range tickers {
		t.Stop()
	}
	driver.Stop()
	k.Run()
	return trace
}

// TestWheelHeapDifferential: the full trace of a mixed program is
// byte-identical between the wheel-backed and heap-only backends, and so
// are the backend-invariant kernel statistics.
func TestWheelHeapDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xDAC2017} {
		kw := NewKernel(seed)
		kh := NewKernel(seed)
		kh.DisableWheel()
		tw := runDifferentialProgram(kw)
		th := runDifferentialProgram(kh)
		if len(tw) != len(th) {
			t.Fatalf("seed %d: wheel fired %d events, heap-only %d", seed, len(tw), len(th))
		}
		for i := range tw {
			if tw[i] != th[i] {
				t.Fatalf("seed %d: fire %d diverges: wheel %+v, heap-only %+v",
					seed, i, tw[i], th[i])
			}
		}
		sw, sh := kw.Stats(), kh.Stats()
		if sw.Fired != sh.Fired || sw.Canceled != sh.Canceled ||
			sw.QueueLive != sh.QueueLive || sw.PeakQueue != sh.PeakQueue {
			t.Errorf("seed %d: invariant stats diverge: wheel %+v, heap-only %+v", seed, sw, sh)
		}
		if kw.wheel == nil {
			t.Fatalf("seed %d: wheel never engaged", seed)
		}
		if kw.wheel.statCascades == 0 {
			t.Errorf("seed %d: no cascades exercised", seed)
		}
	}
}

// TestTickerStopOnCascadeBoundary: a ticker whose period is exactly one
// level-1 slot span (64 grains) re-arms into a level-1 slot on every
// fire, so each tick crosses a cascade boundary. Stopping it from its
// own handler must cancel the wheel-resident re-armed event.
func TestTickerStopOnCascadeBoundary(t *testing.T) {
	k := NewKernel(1)
	// Parked far event keeps the kernel's live count at wheel-engaging
	// depth without ever firing inside the horizon.
	park := k.At(1_000_000, func() { t.Error("parked event fired") })
	companion := k.Every(0, 64, func() {})
	fires := 0
	var tk *Ticker
	tk = k.Every(0, 256, func() { // 64 grains: every re-arm lands at level 1
		fires++
		if fires == 5 {
			tk.Stop()
		}
	})
	k.RunFor(10_000)
	if fires != 5 {
		t.Errorf("ticker fired %d times after Stop at 5, want 5", fires)
	}
	companion.Stop()
	park.Cancel()
	k.Run()
	if fires != 5 {
		t.Errorf("stopped ticker fired again: %d", fires)
	}
	if k.wheel == nil || k.wheel.statCascades == 0 {
		t.Fatal("cascade boundary not exercised")
	}
	if got := k.QueueLen(); got != 0 {
		t.Errorf("QueueLen after drain = %d, want 0", got)
	}
}

// TestCascadeBoundaryTickMatchesHeapOnly: tick times of boundary-period
// tickers (64 and 65 grains — one exactly on the level-1 boundary, one
// just past it) match the heap-only backend exactly.
func TestCascadeBoundaryTickMatchesHeapOnly(t *testing.T) {
	program := func(k *Kernel) []Time {
		var ticks []Time
		park := k.At(1_000_000, func() {})
		a := k.Every(0, 256, func() { ticks = append(ticks, k.Now()) })
		b := k.Every(1, 260, func() { ticks = append(ticks, k.Now()) })
		k.RunFor(50_000)
		a.Stop()
		b.Stop()
		park.Cancel()
		k.Run()
		return ticks
	}
	kw := NewKernel(3)
	kh := NewKernel(3)
	kh.DisableWheel()
	tw, th := program(kw), program(kh)
	if len(tw) != len(th) {
		t.Fatalf("tick counts differ: wheel %d, heap-only %d", len(tw), len(th))
	}
	for i := range tw {
		if tw[i] != th[i] {
			t.Fatalf("tick %d diverges: wheel %v, heap-only %v", i, tw[i], th[i])
		}
	}
	if kw.wheel == nil || kw.wheel.statCascades == 0 {
		t.Fatal("cascade boundary not exercised")
	}
}

// TestCancelWheelResident: an EventRef to a wheel-resident event
// cancels it exactly once, the handler never runs, and the tombstone is
// recycled when its slot drains.
func TestCancelWheelResident(t *testing.T) {
	k := NewKernel(1)
	p1 := k.At(900_000, func() { t.Error("parked event 1 fired") })
	p2 := k.At(900_001, func() { t.Error("parked event 2 fired") })
	fired := false
	r := k.After(512, func() { fired = true })
	if r.ev.index != wheelIdx {
		t.Fatalf("event index = %d, want wheel-resident (%d)", r.ev.index, wheelIdx)
	}
	if !r.Pending() {
		t.Error("wheel-resident event not Pending")
	}
	if !r.Cancel() {
		t.Error("Cancel of wheel-resident event returned false")
	}
	if r.Pending() {
		t.Error("canceled event still Pending")
	}
	if r.Cancel() {
		t.Error("double Cancel returned true")
	}
	if got := k.QueueLen(); got != 2 {
		t.Errorf("QueueLen after cancel = %d, want 2", got)
	}
	k.RunFor(2_000)
	if fired {
		t.Error("canceled wheel-resident event fired")
	}
	p1.Cancel()
	p2.Cancel()
	k.Run()
	if got := k.Stats().QueueDead; got != 0 {
		t.Errorf("QueueDead after drain = %d, want 0", got)
	}
}

// TestWheelSweepRecyclesCanceled: cancel-heavy wheel occupancy triggers
// the bulk sweep (the wheel analog of heap compaction) and the
// surviving events still fire in order.
func TestWheelSweepRecyclesCanceled(t *testing.T) {
	k := NewKernel(1)
	const n = 200
	refs := make([]EventRef, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		refs[i] = k.At(Time(4*(i+1)), func() { fired = append(fired, i) })
	}
	before := k.Stats().Compactions
	for i := range refs {
		if i%10 != 0 {
			refs[i].Cancel()
		}
	}
	if k.wheel == nil {
		t.Fatal("wheel never engaged")
	}
	if k.Stats().Compactions == before {
		t.Error("cancel-heavy wheel occupancy did not trigger a sweep")
	}
	k.Run()
	if len(fired) != n/10 {
		t.Fatalf("fired %d survivors, want %d", len(fired), n/10)
	}
	for j := 1; j < len(fired); j++ {
		if fired[j] <= fired[j-1] {
			t.Fatalf("survivors fired out of order: %v", fired)
		}
	}
}

// TestPooledKernelWheelEpochs: one kernel reused across many
// run-to-empty epochs behaves identically in every epoch, with the
// event pool (not the allocator) serving the steady state.
func TestPooledKernelWheelEpochs(t *testing.T) {
	k := NewKernel(7)
	var totals []int
	for epoch := 0; epoch < 5; epoch++ {
		fired := 0
		base := k.Now()
		for j := 0; j < 100; j++ {
			k.At(base.Add(Duration(j%37+1)), func() { fired++ })
		}
		tk := k.Every(base.Add(1), 50, func() { fired++ })
		k.RunFor(5_000)
		tk.Stop()
		k.Run()
		if got := k.QueueLen(); got != 0 {
			t.Fatalf("epoch %d: QueueLen = %d, want 0", epoch, got)
		}
		if w := k.wheel; w == nil || w.count != 0 || w.slotCount != 0 {
			t.Fatalf("epoch %d: wheel not drained: %+v", epoch, k.wheel)
		}
		totals = append(totals, fired)
	}
	for e := 1; e < len(totals); e++ {
		if totals[e] != totals[0] {
			t.Fatalf("epoch fire counts diverge: %v", totals)
		}
	}
	st := k.Stats()
	if st.Reused == 0 {
		t.Error("pooled kernel never reused an event slot across epochs")
	}
}

// TestWheelSlotOverflowSpillsToHeap: more same-slot events than
// wheelSlotCap spill to the heap and still fire in FIFO order.
func TestWheelSlotOverflowSpillsToHeap(t *testing.T) {
	k := NewKernel(1)
	p := k.At(900_000, func() {})
	p2 := k.At(900_001, func() {})
	var fired []int
	const n = wheelSlotCap + 5
	for i := 0; i < n; i++ {
		i := i
		// Same instant, same grain: the slot fills at wheelSlotCap and
		// the rest overflow to the heap.
		k.At(512, func() { fired = append(fired, i) })
	}
	k.RunFor(1_000)
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := range fired {
		if fired[i] != i {
			t.Fatalf("overflowed same-instant events fired out of FIFO order: %v", fired)
		}
	}
	p.Cancel()
	p2.Cancel()
	k.Run()
}

// TestDisableWheelNeverBuildsWheel: a kernel switched to the heap before
// its first event never builds a wheel, while a default kernel running
// the same program does.
func TestDisableWheelNeverBuildsWheel(t *testing.T) {
	kh := NewKernel(1)
	kh.DisableWheel()
	kw := NewKernel(1)
	program := func(k *Kernel) {
		// Two parked events keep live ≥ wheelMinLive at every re-arm.
		park := k.At(1_000_000, func() {})
		park2 := k.At(1_000_001, func() {})
		tk := k.Every(0, 64, func() {})
		k.RunFor(10_000)
		tk.Stop()
		park.Cancel()
		park2.Cancel()
		k.Run()
	}
	program(kh)
	program(kw)
	if kh.wheel != nil {
		t.Error("heap-only kernel created a wheel")
	}
	if kw.wheel == nil {
		t.Error("default kernel did not create a wheel")
	}
}
