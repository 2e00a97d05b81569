package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// begin opens a span with BeginRef, resolving its strings in t first.
func begin(t *Trace, cat, name, track, args string) Span {
	return t.BeginRef(t.Resolve(cat), t.Resolve(name), t.Resolve(track), t.Resolve(args))
}

// end closes a span with EndRef, resolving its strings in t first.
func end(t *Trace, cat, name, track string, s Span, args string) {
	t.EndRef(t.Resolve(cat), t.Resolve(name), t.Resolve(track), s, t.Resolve(args))
}

func TestLabelsString(t *testing.T) {
	l := Labels{Layer: "soa", ECU: "ecu1", Iface: "Speed"}
	if got, want := l.String(), "{layer=soa,ecu=ecu1,iface=Speed}"; got != want {
		t.Errorf("Labels.String() = %q, want %q", got, want)
	}
}

// The registry hands out stable pointers: the same (name, labels) pair
// always maps to the same instrument.
func TestRegistryStablePointers(t *testing.T) {
	r := NewRegistry()
	l := Labels{Layer: "network", Iface: "body"}
	c1 := r.Counter("frames", l)
	c1.Add(3)
	c2 := r.Counter("frames", l)
	if c1 != c2 {
		t.Error("same key returned distinct counters")
	}
	if c2.Value() != 3 {
		t.Errorf("counter value = %d, want 3", c2.Value())
	}
	if r.Counter("frames", Labels{Layer: "network", Iface: "chassis"}) == c1 {
		t.Error("distinct labels returned the same counter")
	}
}

// Nil registry / trace / obs must be fully inert: wiring code calls
// these unconditionally and relies on the no-op behavior.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c", Labels{}).Inc()
	r.Gauge("g", Labels{}).Set(7)
	r.Histogram("h", Labels{}).Observe(sim.Millisecond)
	if err := r.WriteText(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry WriteText: %v", err)
	}

	var tr *Trace
	sp := begin(tr, "cat", "n", "trk", "")
	if sp.Valid() {
		t.Error("nil trace Begin returned a valid span")
	}
	end(tr, "cat", "n", "trk", sp, "")
	tr.Instant("cat", "n", "trk", "")
	tr.Complete("cat", "n", "trk", 0, 0, "")
	if tr.Len() != 0 {
		t.Error("nil trace retained records")
	}

	var o *Obs
	if o.Metrics() != nil || o.Tracer() != nil {
		t.Error("nil Obs returned non-nil components")
	}
	o.SnapshotKernel(sim.NewKernel(1))
	if Of(sim.NewKernel(1)) != nil {
		t.Error("unobserved kernel has a plane")
	}
	// Accessors on the nil components still work end to end.
	o.Metrics().Counter("c", Labels{}).Inc()
	o.Tracer().Instant("cat", "n", "trk", "")
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	samples := []sim.Duration{
		500,                   // ≤ 1us
		sim.Microsecond,       // boundary: ≤ 1us
		5 * sim.Microsecond,   // ≤ 10us
		sim.Millisecond,       // ≤ 1ms
		200 * sim.Millisecond, // ≤ 1s
		2 * sim.Second,        // +Inf
	}
	for _, d := range samples {
		h.Observe(d)
	}
	want := [8]int64{2, 1, 0, 1, 0, 0, 1, 1}
	if h.buckets != want {
		t.Errorf("buckets = %v, want %v", h.buckets, want)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Max() != 2*sim.Second {
		t.Errorf("max = %s, want 2s", h.Max())
	}
	var sum sim.Duration
	for _, d := range samples {
		sum += d
	}
	if h.Sum() != sum || h.Mean() != sum/6 {
		t.Errorf("sum=%s mean=%s, want %s/%s", h.Sum(), h.Mean(), sum, sum/6)
	}
	var empty Histogram
	if empty.Mean() != 0 {
		t.Errorf("empty histogram mean = %s, want 0", empty.Mean())
	}
}

// WriteText output is sorted by (name, layer, ecu, iface) regardless of
// creation order, and byte-identical across dumps.
func TestWriteTextDeterministic(t *testing.T) {
	build := func(order []int) *Registry {
		r := NewRegistry()
		type ent struct {
			name string
			l    Labels
			v    int64
		}
		ents := []ent{
			{"zz_frames", Labels{Layer: "network", Iface: "body"}, 2},
			{"aa_jobs", Labels{Layer: "platform", ECU: "ecu2"}, 5},
			{"aa_jobs", Labels{Layer: "platform", ECU: "ecu1"}, 4},
		}
		for _, i := range order {
			r.Counter(ents[i].name, ents[i].l).Add(ents[i].v)
		}
		r.Gauge("mode", Labels{Layer: "platform"}).Set(3)
		r.Histogram("lat", Labels{Layer: "soa", Iface: "Speed"}).Observe(5 * sim.Microsecond)
		return r
	}
	var a, b bytes.Buffer
	if err := build([]int{0, 1, 2}).WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := build([]int{2, 0, 1}).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("creation order changed dump:\n--- a\n%s--- b\n%s", a.String(), b.String())
	}
	want := "counter aa_jobs{layer=platform,ecu=ecu1,iface=} 4\n" +
		"counter aa_jobs{layer=platform,ecu=ecu2,iface=} 5\n" +
		"counter zz_frames{layer=network,ecu=,iface=body} 2\n" +
		"gauge mode{layer=platform,ecu=,iface=} 3\n" +
		"hist lat{layer=soa,ecu=,iface=Speed} count=1 sum=5us max=5us mean=5us " +
		"le{1us:0,10us:1,100us:0,1ms:0,10ms:0,100ms:0,1s:0,+Inf:0}\n"
	if a.String() != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", a.String(), want)
	}
}

// Cap bounds the retained records and Dropped counts the rest. Records
// go into fixed blocks chained as they fill: a capped trace holds at
// most ⌈Cap/blockSize⌉ blocks, and a retained record never moves.
func TestTraceCapDropsExcess(t *testing.T) {
	for _, capN := range []int{2, blockSize, blockSize + 1, 3*blockSize - 7} {
		tr := NewTrace(sim.NewKernel(1))
		tr.Cap = capN
		var kept []*record
		for i := 0; i < capN+3; i++ {
			tr.Complete("cat", "n", "trk", sim.Time(i), 0, "")
			if i < capN {
				kept = append(kept, &tr.tail.recs[tr.tail.n-1])
			}
		}
		if tr.Len() != capN || tr.Dropped != 3 {
			t.Errorf("Cap %d: retained %d, dropped %d; want %d and 3", capN, tr.Len(), tr.Dropped, capN)
		}
		blocks, i := 0, 0
		for b := tr.head; b != nil; b = b.next {
			blocks++
			for j := range b.recs[:b.n] {
				if &b.recs[j] != kept[i] || b.recs[j].ts != sim.Time(i) {
					t.Fatalf("Cap %d: record %d moved or changed", capN, i)
				}
				i++
			}
		}
		if want := (capN + blockSize - 1) / blockSize; blocks > want {
			t.Errorf("Cap %d: %d blocks, want at most %d", capN, blocks, want)
		}
	}
	// Span ordinals keep advancing even when the record is dropped, so
	// IDs stay deterministic regardless of the cap.
	tr := NewTrace(sim.NewKernel(1))
	tr.Cap = 1
	tr.Instant("cat", "n", "trk", "")
	if sp := begin(tr, "cat", "s", "trk", ""); sp.id != 1 || tr.Dropped != 1 {
		t.Errorf("span id = %d, dropped %d; want 1 and 1", sp.id, tr.Dropped)
	}
}

// A stored record holds no pointer, so the collector never scans the
// records of a block.
func TestRecordHoldsNoPointers(t *testing.T) {
	var check func(path string, ty reflect.Type)
	check = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: records must hold no pointers", path, ty.Kind())
		}
	}
	check("record", reflect.TypeOf(record{}))
}

// Recording into a fresh capped trace allocates its blocks and its
// intern table, and nothing per record.
func TestTraceRecordAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	record := func(n int) func() {
		return func() {
			tr := NewTrace(k)
			tr.Cap = 4096
			tr.intern("cat")
			tr.intern("name")
			tr.intern("track")
			tr.intern("args")
			for i := 0; i < n; i++ {
				tr.Instant("cat", "name", "track", "args")
			}
		}
	}
	table := testing.AllocsPerRun(10, record(0))
	all := testing.AllocsPerRun(10, record(4096))
	if all-table > 4096/blockSize {
		t.Errorf("4096 records: %v allocations beyond the intern table's %v, want at most %d blocks",
			all-table, table, 4096/blockSize)
	}
}

// The Chrome export must be valid JSON (including escaping of quotes,
// backslashes and control characters) and byte-identical across writes.
func TestChromeTraceValidAndDeterministic(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTrace(k)
	sp := begin(tr, "net", `frame "x"\path`, "can:body", "id=0x12\tsrc")
	end(tr, "net", `frame "x"\path`, "can:body", sp, "delivered\n")
	tr.Instant("mode", string([]byte{'m', 0x01}), "modes", "")
	tr.Complete("platform", "job", "ecu:ecu1", sim.Time(1500), sim.Duration(2500), "ok")
	scopes := []Scope{{Name: "test/scope", Trace: tr}, {Name: "empty", Trace: nil}}

	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, scopes); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, scopes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Chrome trace not byte-identical across writes")
	}

	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, a.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 process_name metas + 2 thread_name metas (can:body, modes... plus
	// ecu:ecu1) + 4 records.
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] != 5 || phases["b"] != 1 || phases["e"] != 1 || phases["i"] != 1 || phases["X"] != 1 {
		t.Errorf("phase histogram = %v", phases)
	}
	if !strings.Contains(a.String(), `"tsns":1500`) {
		t.Error("sub-microsecond remainder not preserved in args.tsns")
	}
}

// SnapshotKernel must export only the event-program gauges; queue
// bookkeeping (pool occupancy, reuse, compactions) is never exported,
// so observed artifacts do not move with the queue's internals.
func TestSnapshotKernelBackendInvariantOnly(t *testing.T) {
	k := sim.NewKernel(1)
	o := New(k)
	o.SnapshotKernel(k)
	var buf bytes.Buffer
	if err := o.M.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, want := range []string{"kernel_fired", "kernel_canceled", "kernel_queue_live", "kernel_queue_peak"} {
		if !strings.Contains(dump, want) {
			t.Errorf("SnapshotKernel missing invariant gauge %s", want)
		}
	}
	for _, banned := range []string{"kernel_pool_free", "kernel_compactions", "kernel_reused"} {
		if strings.Contains(dump, banned) {
			t.Errorf("SnapshotKernel leaked queue-bookkeeping gauge %s", banned)
		}
	}
}

// Steady-state instrument updates and enabled trace pushes must not
// allocate; nil-trace hooks must be free too. This is the contract that
// lets the instrumented layers keep their hot paths allocation-free.
func TestInstrumentsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", Labels{Layer: "x"})
	g := r.Gauge("g", Labels{Layer: "x"})
	h := r.Histogram("h", Labels{Layer: "x"})
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(3)
		h.Observe(5 * sim.Microsecond)
	}); n != 0 {
		t.Errorf("instrument update allocs/op = %g, want 0", n)
	}
	var tr *Trace
	if n := testing.AllocsPerRun(100, func() {
		sp := begin(tr, "c", "n", "t", "")
		end(tr, "c", "n", "t", sp, "")
		tr.Instant("c", "n", "t", "")
	}); n != 0 {
		t.Errorf("nil-trace hook allocs/op = %g, want 0", n)
	}

	// A full trace only counts: no record, no args string, but span IDs
	// keep advancing and the tap keeps its counters and histogram.
	k := sim.NewKernel(1)
	o := New(k)
	o.T.Cap = 1
	o.T.Instant("c", "fill", "t", "")
	tap := o.Tap().(*NetTap)
	msg := &network.Message{ID: 0x12, Src: "ecu1", Class: network.ClassControl, Bytes: 8}
	tap.FrameDelivered("body", tap.FrameEnqueued("body", msg, 0), msg, "ecu2", 0)
	if n := testing.AllocsPerRun(100, func() {
		sp := begin(o.T, "c", "n", "t", "")
		end(o.T, "c", "n", "t", sp, "")
		o.T.Instant("c", "n", "t", "")
		span := tap.FrameEnqueued("body", msg, 0)
		tap.FrameDelivered("body", span, msg, "ecu2", sim.Time(sim.Microsecond))
	}); n != 0 {
		t.Errorf("full-trace hook allocs/op = %g, want 0", n)
	}
	if got := o.T.Len(); got != 1 {
		t.Errorf("full trace retained %d records, want 1", got)
	}
	// 1 warm-up frame (2 records) + 101 runs × 5 records, all dropped.
	if want := int64(2 + 101*5); o.T.Dropped != want {
		t.Errorf("Dropped = %d, want %d", o.T.Dropped, want)
	}
	net := tap.net("body")
	if net.enq.Value() != 102 || net.deliv.Value() != 102 || net.lat.Count() != 102 {
		t.Errorf("full trace changed tap metrics: enq=%d deliv=%d lat=%d, want 102 each",
			net.enq.Value(), net.deliv.Value(), net.lat.Count())
	}
	if len(tap.spanStart) != 0 {
		t.Errorf("%d frame spans left open", len(tap.spanStart))
	}
}

// benchScopes returns one scope holding n records spread over a few
// tracks, with the args a frame hook formats.
func benchScopes(n int) []Scope {
	k := sim.NewKernel(1)
	tr := NewTrace(k)
	tracks := [...]string{"net:body", "net:chassis", "soa:Speed", "ecu:ecu1"}
	for i := 0; i < n; i++ {
		track := tracks[i%len(tracks)]
		k.At(sim.Time(i*1500), func() {
			sp := begin(tr, "net", "frame", track, "id=0x12 ecu1->* class=control bytes=8")
			end(tr, "net", "frame", track, sp, "delivered ecu2")
		})
	}
	k.Run()
	return []Scope{{Name: "bench", Trace: tr}}
}

// writeCounter discards what it is given and counts the Write calls.
type writeCounter struct{ writes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// Rendering appends into one reused buffer, so ten times the records
// cost no more allocations than the extra chunk flushes.
func TestWriteChromeTraceAllocsFlat(t *testing.T) {
	measure := func(scopes []Scope) (allocs float64, flushes int) {
		var w writeCounter
		allocs = testing.AllocsPerRun(5, func() {
			if err := WriteChromeTrace(&w, scopes); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, w.writes / 6 // AllocsPerRun renders once more to warm up
	}
	small, smallFlushes := measure(benchScopes(1000))
	large, largeFlushes := measure(benchScopes(10000))
	if largeFlushes <= smallFlushes {
		t.Fatalf("flushes = %d and %d: the inputs do not span several chunks", smallFlushes, largeFlushes)
	}
	if large > small+float64(largeFlushes-smallFlushes) {
		t.Errorf("allocs/render = %g at 2k records, %g at 20k records (flushes %d, %d)",
			small, large, smallFlushes, largeFlushes)
	}
}

func BenchmarkWriteChromeTrace(b *testing.B) {
	scopes := benchScopes(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, scopes); err != nil {
			b.Fatal(err)
		}
	}
}
