package sim

import "testing"

func TestAfterPriorityAndNegativeDelays(t *testing.T) {
	k := NewKernel(1)
	var got []string
	k.At(5, func() {
		k.AfterPriority(0, PriorityLate, func() { got = append(got, "late") })
		k.AfterPriority(0, PriorityClock, func() { got = append(got, "clock") })
	})
	k.Run()
	if len(got) != 2 || got[0] != "clock" || got[1] != "late" {
		t.Errorf("got = %v", got)
	}
	for _, fn := range []func(){
		func() { k.After(-1, func() {}) },
		func() { k.AfterPriority(-1, PriorityNormal, func() {}) },
		func() { k.At(0, nil) },
		func() { k.Every(0, 0, func() {}) },
	} {
		fn := fn
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestReentrantRunPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		k.Run()
	})
	k.Run()
}

func TestCancelInsideHandler(t *testing.T) {
	k := NewKernel(1)
	fired := false
	var ref EventRef
	k.At(1, func() { ref.Cancel() })
	ref = k.At(2, func() { fired = true })
	k.Run()
	if fired {
		t.Error("event fired after in-flight cancel")
	}
}

func TestSplitIndependentStreams(t *testing.T) {
	// Drawing from a split stream must not perturb the parent.
	a := NewRNG(5)
	b := NewRNG(5)
	child := a.Split()
	_ = b.Split()
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("child draws perturbed the parent stream")
		}
	}
}

func TestRangeAndDurationRangeEdges(t *testing.T) {
	r := NewRNG(1)
	if v := r.Range(7, 7); v != 7 {
		t.Errorf("Range(7,7) = %d", v)
	}
	if d := r.DurationRange(5, 5); d != 5 {
		t.Errorf("DurationRange(5,5) = %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("Range(2,1) did not panic")
		}
	}()
	r.Range(2, 1)
}

func TestNormalDurationClamps(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		if d := r.NormalDuration(0, Second); d < 0 {
			t.Fatalf("negative duration %v", d)
		}
	}
}

func TestStatsDurationAccessors(t *testing.T) {
	var s Stats
	s.AddDuration(20 * Millisecond)
	s.AddDuration(10 * Millisecond)
	if Duration(s.Mean()) != 15*Millisecond {
		t.Errorf("mean = %v", Duration(s.Mean()))
	}
	if s.MinDuration() != 10*Millisecond || s.MaxDuration() != 20*Millisecond {
		t.Errorf("min/max = %v/%v", s.MinDuration(), s.MaxDuration())
	}
	if s.Jitter() != 10*Millisecond {
		t.Errorf("jitter = %v", s.Jitter())
	}
}

// Without an observer, Trace must not format its arguments: the fmt work at
// the call sites runs only when a run is observed.
func TestTraceWithoutHookDoesNotFormat(t *testing.T) {
	k := NewKernel(1)
	var calls countingStringer
	k.Trace("x", "%v", &calls)
	if k.Tracing() || calls != 0 {
		t.Errorf("unobserved Trace formatted its args %d time(s)", calls)
	}
	k.SetObserver(traceFunc(func(Time, string, string) {}))
	k.Trace("x", "%v", &calls)
	if calls != 1 {
		t.Errorf("observed Trace formatted its args %d time(s), want 1", calls)
	}
}

type countingStringer int

func (c *countingStringer) String() string {
	*c++
	return "c"
}
