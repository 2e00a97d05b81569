package sim

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Errorf("Now() = %v, want 30", k.Now())
	}
}

func TestKernelSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestKernelPriority(t *testing.T) {
	k := NewKernel(1)
	var got []string
	k.AtPriority(5, PriorityLate, func() { got = append(got, "late") })
	k.AtPriority(5, PriorityNormal, func() { got = append(got, "normal") })
	k.AtPriority(5, PriorityClock, func() { got = append(got, "clock") })
	k.Run()
	if got[0] != "clock" || got[1] != "normal" || got[2] != "late" {
		t.Fatalf("priority order = %v", got)
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	k.At(10, func() {
		fired = append(fired, k.Now())
		k.After(5, func() { fired = append(fired, k.Now()) })
	})
	k.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestEventCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	ref := k.At(10, func() { fired = true })
	if !ref.Pending() {
		t.Error("event not pending after scheduling")
	}
	if !ref.Cancel() {
		t.Error("Cancel returned false for pending event")
	}
	if ref.Cancel() {
		t.Error("second Cancel returned true")
	}
	k.Run()
	if fired {
		t.Error("canceled event fired")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10,20 only", fired)
	}
	if k.Now() != 25 {
		t.Errorf("Now() = %v, want 25", k.Now())
	}
	k.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("after second RunUntil fired %v", fired)
	}
}

func TestRunForAdvancesEvenWhenIdle(t *testing.T) {
	k := NewKernel(1)
	k.RunFor(500)
	if k.Now() != 500 {
		t.Errorf("Now() = %v, want 500", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for i := Time(1); i <= 10; i++ {
		k.At(i, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3 after Stop", count)
	}
	// A stopped kernel can be resumed.
	k.Run()
	if count != 10 {
		t.Errorf("count = %d after resume, want 10", count)
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	var fires []Time
	tk := k.Every(100, 50, func() { fires = append(fires, k.Now()) })
	k.At(260, func() { tk.Stop() })
	k.Run()
	want := []Time{100, 150, 200, 250}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := NewKernel(42)
		var out []Time
		var step func()
		step = func() {
			out = append(out, k.Now())
			if len(out) < 100 {
				k.After(Duration(k.RNG().Range(1, 1000)), step)
			}
		}
		k.At(0, step)
		k.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"}, {Second, "1s"}, {5 * Millisecond, "5ms"},
		{250 * Microsecond, "250us"}, {17, "17ns"}, {1500 * Microsecond, "1500us"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	for i := 0; i < 1000; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds matched %d/1000 draws", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	err := quick.Check(func(seed uint64, n16 uint16) bool {
		n := int(n16%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(11)
	xs := make([]float64, 50000)
	var s Stats
	for i := range xs {
		xs[i] = r.Normal(10, 2)
		s.Add(xs[i])
	}
	m := s.Mean()
	if m < 9.9 || m > 10.1 {
		t.Errorf("normal mean = %v, want ~10", m)
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	if sd := math.Sqrt(ss / float64(len(xs)-1)); sd < 1.9 || sd > 2.1 {
		t.Errorf("normal stddev = %v, want ~2", sd)
	}
}

func TestRNGExponentialMean(t *testing.T) {
	r := NewRNG(13)
	var s Stats
	for i := 0; i < 50000; i++ {
		s.Add(r.Exponential(5))
	}
	if m := s.Mean(); m < 4.8 || m > 5.2 {
		t.Errorf("exponential mean = %v, want ~5", m)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, n8 uint8) bool {
		n := int(n8 % 64)
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestStatsMeanMinMax(t *testing.T) {
	var s Stats
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 || s.Mean() != 5 {
		t.Errorf("count/mean = %d/%v, want 8/5", s.Count(), s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Stats
	if s.Count() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 ||
		s.MinDuration() != 0 || s.MaxDuration() != 0 || s.Jitter() != 0 {
		t.Error("empty stats should be all-zero")
	}
}

// Stats against a retained reference: the count, an insertion-order
// sum/n (bit-equal, so a table that prints a mean cannot drift), the
// sorted extremes and their difference.
func TestStatsMatchesReference(t *testing.T) {
	err := quick.Check(func(raw []int64) bool {
		var s Stats
		ds := make([]Duration, len(raw))
		sum := 0.0
		for i, r := range raw {
			ds[i] = Duration(r % (1 << 40))
			s.AddDuration(ds[i])
			sum += float64(ds[i])
		}
		if len(ds) == 0 {
			return s.Count() == 0 && s.Mean() == 0 && s.Jitter() == 0 &&
				s.MinDuration() == 0 && s.MaxDuration() == 0
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		lo, hi := ds[0], ds[len(ds)-1]
		return s.Count() == int64(len(ds)) &&
			s.Mean() == sum/float64(len(ds)) &&
			s.MinDuration() == lo && s.MaxDuration() == hi &&
			s.Min() == float64(lo) && s.Max() == float64(hi) &&
			s.Jitter() == hi-lo
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(50); p != 50 {
		t.Errorf("p50 = %v, want 50", p)
	}
	if p := s.Percentile(99); p != 99 {
		t.Errorf("p99 = %v, want 99", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Errorf("p100 = %v, want 100", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Errorf("p0 = %v, want 1", p)
	}
}

func TestSamplePercentileMonotone(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		var s Sample
		for i := 0; i < 100; i++ {
			s.Add(r.Float64() * 1000)
		}
		prev := s.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestTracer(t *testing.T) {
	k := NewKernel(1)
	var got []string
	k.SetObserver(traceFunc(func(at Time, category, message string) {
		got = append(got, fmt.Sprintf("%d %s %s", at, category, message))
	}))
	if !k.Tracing() || k.Observer() == nil {
		t.Error("Tracing() = false with an observer installed")
	}
	k.At(5, func() { k.Trace("bus", "frame %d sent", 7) })
	k.At(6, func() { k.Trace("cpu", "task done") })
	k.At(7, func() {
		k.TraceLine("can", TraceLine{Form: LineCANTx, S: [3]string{"body", "ecu1"}, I: [3]int64{0x12, 8, 135000}})
	})
	k.Run()
	want := []string{"5 bus frame 7 sent", "6 cpu task done", "7 can body: id=0x12 8B from ecu1 tx=135us"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("observer lines = %q, want %q", got, want)
	}
	k.SetObserver(nil)
	k.Trace("bus", "after removal")
	k.TraceLine("can", TraceLine{Form: LineCANTx})
	if k.Tracing() || k.Observer() != nil || len(got) != 3 {
		t.Errorf("removed observer still receives lines: %q", got)
	}
}

// traceFunc adapts a function to sim.Observer.
type traceFunc func(at Time, category, message string)

func (f traceFunc) KernelTrace(at Time, category, message string) { f(at, category, message) }

func (f traceFunc) KernelTraceLine(at Time, category string, l TraceLine) {
	f(at, category, string(l.AppendText(nil)))
}

// A typed line renders to the text its call site formatted with Trace
// before it had a typed form: the observed artifacts depend on it.
func TestTraceLineMatchesSprintf(t *testing.T) {
	for _, c := range []struct {
		id, bytes int64
		bus, src  string
		tx        Duration
	}{
		{0x12, 8, "body", "ecu1", 135 * Microsecond},
		{0, 0, "", "", 0},
		{0x7ff, 64, "ch-2", "gw", 1234567},
		{0x1fffffff, 1, "b", "x y", 2 * Second},
	} {
		l := TraceLine{Form: LineCANTx, S: [3]string{c.bus, c.src}, I: [3]int64{c.id, c.bytes, int64(c.tx)}}
		want := fmt.Sprintf("%s: id=%#x %dB from %s tx=%v", c.bus, uint32(c.id), int(c.bytes), c.src, c.tx)
		if got := string(l.AppendText(nil)); got != want {
			t.Errorf("CAN line %q, Sprintf %q", got, want)
		}
	}
	for _, c := range []struct {
		app, iface, net string
		version         int
	}{
		{"brake", "BrakeCmd", "backbone", 1},
		{"a", "b", "", 2},
		{"app", "If", "ne\"t\n", -3},
	} {
		l := TraceLine{Form: LineSOAOffer, S: [3]string{c.app, c.iface, c.net}, I: [3]int64{int64(c.version)}}
		want := fmt.Sprintf("%s offers %s v%d on %q", c.app, c.iface, c.version, c.net)
		if got := string(l.AppendText(nil)); got != want {
			t.Errorf("SOA line %q, Sprintf %q", got, want)
		}
	}
}

func BenchmarkKernelScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := NewKernel(1)
		var step func()
		n := 0
		step = func() {
			n++
			if n < 1000 {
				k.After(10, step)
			}
		}
		k.At(0, step)
		k.Run()
	}
}
