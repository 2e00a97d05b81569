package sim

// Tests for the event pool, generation-checked EventRefs, lazy removal
// of canceled events, and the kernel observability counters added with
// the 4-ary-heap rewrite.

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestCancelAfterFireIsInert(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	ref := k.At(10, func() { fired++ })
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if ref.Cancel() {
		t.Error("Cancel returned true for already-fired event")
	}
	if ref.Pending() {
		t.Error("fired event still reports Pending")
	}
	// The slot is now pooled. A new event must reuse it; the stale ref
	// must not be able to cancel the new occupant.
	other := false
	k.At(20, func() { other = true })
	if ref.Cancel() {
		t.Error("stale ref canceled a recycled slot")
	}
	k.Run()
	if !other {
		t.Error("recycled event did not fire (killed by stale ref?)")
	}
}

func TestDoubleCancel(t *testing.T) {
	k := NewKernel(1)
	ref := k.At(10, func() { t.Error("canceled event fired") })
	if !ref.Cancel() {
		t.Fatal("first Cancel failed")
	}
	if ref.Cancel() {
		t.Error("second Cancel returned true")
	}
	k.Run()
	if ref.Cancel() {
		t.Error("post-run Cancel returned true")
	}
}

func TestCancelOfRecycledSlot(t *testing.T) {
	k := NewKernel(1)
	// Schedule + cancel + drain so the slot round-trips the pool.
	stale := k.At(5, func() {})
	stale.Cancel()
	k.Run()
	// Reuse the slot for a live event.
	fired := false
	fresh := k.At(10, func() { fired = true })
	if stale.Pending() {
		t.Error("stale ref reports recycled slot as pending")
	}
	if stale.Cancel() {
		t.Error("stale ref canceled recycled slot")
	}
	if !fresh.Pending() {
		t.Error("fresh ref not pending")
	}
	k.Run()
	if !fired {
		t.Error("recycled event did not fire")
	}
}

// TestAfterCallRef: the ref AfterCallRef returns cancels its event, and
// a ref kept after the slot was recycled cancels nothing; the call
// takes its sequence number as After does, so same-instant events keep
// their scheduling order across the two forms.
func TestAfterCallRef(t *testing.T) {
	k := NewKernel(1)
	var got []int
	note := func(arg any) { got = append(got, arg.(int)) }
	canceled := k.AfterCallRef(10, note, 1)
	if !canceled.Pending() {
		t.Fatal("fresh AfterCallRef ref not pending")
	}
	if !canceled.Cancel() {
		t.Fatal("Cancel through the AfterCallRef ref failed")
	}
	k.Run()
	if len(got) != 0 {
		t.Fatalf("canceled event fired: %v", got)
	}

	// The canceled slot is back in the pool; the next event reuses it,
	// and the stale ref must neither see nor cancel that event.
	fresh := k.AfterCallRef(10, note, 2)
	if fresh.ev != canceled.ev {
		t.Fatal("the next event did not reuse the canceled slot")
	}
	if canceled.Pending() || canceled.Cancel() {
		t.Error("stale ref reached the slot's next event")
	}
	k.After(10, func() { got = append(got, 3) })
	k.AfterCallRef(10, note, 4)
	k.Run()
	if want := []int{2, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("fired %v, want %v (stale ref canceled, or order differs from After)", got, want)
	}
	if fresh.Pending() || fresh.Cancel() {
		t.Error("ref of a fired AfterCallRef event still cancels")
	}
}

func TestPoolReuseIsObservable(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 10; i++ {
		k.At(Time(i+1), func() {})
	}
	k.Run()
	st := k.Stats()
	if st.Fired != 10 {
		t.Errorf("Fired = %d, want 10", st.Fired)
	}
	if st.PoolFree == 0 {
		t.Error("no slots parked in pool after drain")
	}
	for i := 0; i < 10; i++ {
		k.At(k.Now().Add(Duration(i+1)), func() {})
	}
	if got := k.Stats().Reused; got != 10 {
		t.Errorf("Reused = %d, want 10 (pool not hit)", got)
	}
	k.Run()
}

func TestQueueLenCountsOnlyLive(t *testing.T) {
	k := NewKernel(1)
	var refs []EventRef
	for i := 0; i < 10; i++ {
		refs = append(refs, k.At(Time(i+1), func() {}))
	}
	if k.QueueLen() != 10 {
		t.Fatalf("QueueLen = %d, want 10", k.QueueLen())
	}
	for i := 0; i < 4; i++ {
		refs[i].Cancel()
	}
	if k.QueueLen() != 6 {
		t.Errorf("QueueLen = %d after 4 cancels, want 6", k.QueueLen())
	}
	st := k.Stats()
	if st.QueueLive != 6 || st.QueueDead != 4 || st.Canceled != 4 {
		t.Errorf("stats = %+v, want live=6 dead=4 canceled=4", st)
	}
	k.Run()
	if k.QueueLen() != 0 {
		t.Errorf("QueueLen = %d after drain, want 0", k.QueueLen())
	}
}

func TestStopOutsideRunIsNoOp(t *testing.T) {
	k := NewKernel(1)
	k.Stop() // documented no-op: kernel is not running
	count := 0
	for i := 1; i <= 5; i++ {
		k.At(Time(i), func() { count++ })
	}
	k.Run()
	if count != 5 {
		t.Errorf("pre-Run Stop suppressed events: count = %d, want 5", count)
	}
	// Stop after Run (idle again) must not affect the next Run either.
	k.Stop()
	k.At(k.Now().Add(1), func() { count++ })
	k.Run()
	if count != 6 {
		t.Errorf("post-Run Stop suppressed events: count = %d, want 6", count)
	}
}

func TestRunUntilSkipsCanceledHeadBeyondEnd(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	// Canceled event sits at the head between end and the live events.
	doomed := k.At(15, func() { fired = append(fired, 15) })
	k.At(10, func() { fired = append(fired, 10) })
	k.At(30, func() { fired = append(fired, 30) })
	doomed.Cancel()
	k.RunUntil(20)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10] (canceled head must not pull events past end)", fired)
	}
	if k.Now() != 20 {
		t.Errorf("Now() = %v, want 20", k.Now())
	}
	k.RunUntil(40)
	if len(fired) != 2 || fired[1] != 30 {
		t.Errorf("fired = %v, want [10 30]", fired)
	}
}

func TestRunUntilCanceledEventIsNotTimeBarrier(t *testing.T) {
	k := NewKernel(1)
	fired := false
	// Only event is canceled and before end: the clock must still reach end.
	ref := k.At(5, func() { fired = true })
	ref.Cancel()
	k.RunUntil(100)
	if fired {
		t.Error("canceled event fired")
	}
	if k.Now() != 100 {
		t.Errorf("Now() = %v, want 100", k.Now())
	}
}

func TestCompactionPreservesOrder(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	var refs []EventRef
	// Enough events to cross the compaction threshold, cancel >50%.
	for i := 0; i < 400; i++ {
		at := Time(1 + (i*7919)%4000) // scattered, collisions resolved by seq
		refs = append(refs, k.At(at, func() { got = append(got, k.Now()) }))
	}
	for i, r := range refs {
		if i%4 != 0 {
			r.Cancel()
		}
	}
	if k.Stats().Compactions == 0 {
		t.Error("expected at least one compaction after 75% cancels")
	}
	k.Run()
	if len(got) != 100 {
		t.Fatalf("fired %d events, want 100", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("order violated at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

func TestTickerRearmReusesSlotAndRefStaysValid(t *testing.T) {
	k := NewKernel(1)
	fires := 0
	tk := k.Every(10, 10, func() { fires++ })
	k.RunUntil(95)
	if fires != 9 {
		t.Fatalf("fires = %d, want 9", fires)
	}
	// Steady-state ticking must not grow the pool or allocate new slots:
	// the single ticker slot is re-armed in place.
	st := k.Stats()
	if st.PoolFree > 1 {
		t.Errorf("PoolFree = %d, want ≤1 (ticker should re-arm its own slot)", st.PoolFree)
	}
	tk.Stop()
	k.RunUntil(200)
	if fires != 9 {
		t.Errorf("ticker fired after Stop: fires = %d", fires)
	}
}

func TestTickerStopFromOtherEventWithPooledKernel(t *testing.T) {
	// A ticker whose pending tick is canceled by another event must stay
	// stopped even though its slot is recycled for unrelated events.
	k := NewKernel(1)
	fires := 0
	tk := k.Every(10, 10, func() { fires++ })
	k.At(35, func() { tk.Stop() })
	churn := 0
	k.Every(1, 3, func() {
		churn++
		if churn > 100 {
			k.Stop()
		}
	})
	k.Run()
	if fires != 3 {
		t.Errorf("fires = %d, want 3 (ticks at 10,20,30)", fires)
	}
}

// TestPooledKernelMatchesFreshKernel is the aliasing property test: the
// same randomized event program must produce an identical firing trace
// on a cold kernel (pool empty, all slots freshly allocated) and on a
// warmed kernel (every slot served from the pool), across seeds.
func TestPooledKernelMatchesFreshKernel(t *testing.T) {
	trace := func(k *Kernel, seed uint64) []Duration {
		r := NewRNG(seed)
		var out []Duration
		var refs []EventRef
		base := k.Now()
		for i := 0; i < 300; i++ {
			at := base.Add(Duration(r.Range(1, 2000)))
			refs = append(refs, k.At(at, func() { out = append(out, k.Now().Sub(base)) }))
		}
		for _, ref := range refs {
			if r.Intn(3) == 0 {
				ref.Cancel()
			}
		}
		k.Run()
		return out
	}
	for seed := uint64(1); seed <= 10; seed++ {
		cold := NewKernel(seed)
		coldTrace := trace(cold, seed)
		warm := NewKernel(seed)
		_ = trace(warm, seed^0xdeadbeef) // warm the pool with a different program
		warmTrace := trace(warm, seed)
		if len(coldTrace) != len(warmTrace) {
			t.Fatalf("seed %d: cold fired %d, warm fired %d", seed, len(coldTrace), len(warmTrace))
		}
		for i := range coldTrace {
			if coldTrace[i] != warmTrace[i] {
				t.Fatalf("seed %d: traces diverge at %d: %v vs %v", seed, i, coldTrace[i], warmTrace[i])
			}
		}
	}
}

func TestPendingGenerationProperty(t *testing.T) {
	// For any schedule/cancel/run interleaving, a ref that was canceled
	// or has fired never reports Pending.
	err := quick.Check(func(seed uint64) bool {
		k := NewKernel(seed)
		r := NewRNG(seed)
		type tracked struct {
			ref      EventRef
			canceled bool
		}
		var refs []*tracked
		for i := 0; i < 50; i++ {
			tr := &tracked{}
			tr.ref = k.At(Time(r.Range(1, 100)), func() {})
			refs = append(refs, tr)
		}
		for _, tr := range refs {
			if r.Intn(2) == 0 {
				tr.ref.Cancel()
				tr.canceled = true
			}
		}
		k.Run()
		for _, tr := range refs {
			if tr.ref.Pending() {
				return false // everything fired or was canceled
			}
			if tr.ref.Cancel() {
				return false // nothing is still cancelable
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// The four tests below keep queue-independent kernel contracts under
// the names they carried when a timing wheel sat in front of the heap;
// the heap is now the only event queue and they run against it.

// TestTickerStopOnCascadeBoundary: a ticker stopped from its own
// handler cancels the re-arm that fire queued before calling it, so it
// never fires again, even with a companion ticker and a parked far
// event keeping the queue busy.
func TestTickerStopOnCascadeBoundary(t *testing.T) {
	k := NewKernel(1)
	park := k.At(1_000_000, func() { t.Error("parked event fired") })
	companion := k.Every(0, 64, func() {})
	fires := 0
	var tk *Ticker
	tk = k.Every(0, 256, func() {
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
	if got := k.QueueLen(); got != 0 {
		t.Errorf("QueueLen after drain = %d, want 0", got)
	}
}

// TestCancelHeavyQueueCompactsKeepingOrder: cancelling most queued
// events triggers a heap compaction, and the surviving events still
// fire in order.
func TestCancelHeavyQueueCompactsKeepingOrder(t *testing.T) {
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
	if k.Stats().Compactions == before {
		t.Error("cancel-heavy occupancy did not trigger a sweep")
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

// TestPooledKernelEpochsRepeat: one kernel reused across many
// run-to-empty epochs behaves identically in every epoch, with the
// event pool (not the allocator) serving the steady state.
func TestPooledKernelEpochsRepeat(t *testing.T) {
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
		totals = append(totals, fired)
	}
	for e := 1; e < len(totals); e++ {
		if totals[e] != totals[0] {
			t.Fatalf("epoch fire counts diverge: %v", totals)
		}
	}
	if k.Stats().Reused == 0 {
		t.Error("pooled kernel never reused an event slot across epochs")
	}
}

// TestSameInstantFIFOBehindParkedEvents: thirteen events at one
// instant, queued behind two parked far events, fire in FIFO order.
func TestSameInstantFIFOBehindParkedEvents(t *testing.T) {
	k := NewKernel(1)
	p := k.At(900_000, func() {})
	p2 := k.At(900_001, func() {})
	var fired []int
	const n = 13
	for i := 0; i < n; i++ {
		i := i
		k.At(512, func() { fired = append(fired, i) })
	}
	k.RunFor(1_000)
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := range fired {
		if fired[i] != i {
			t.Fatalf("same-instant events fired out of FIFO order: %v", fired)
		}
	}
	p.Cancel()
	p2.Cancel()
	k.Run()
}
