package obs

import (
	"bytes"
	"io"
	"testing"

	"dynaplat/internal/can"
	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// canEnv returns the Env recordCANRun records into.
func canEnv() *Env { return &Env{Observe: true, TraceCap: 1500} }

// recordCANRun records a small observed run into env the way a workload
// does: two kernels, each with a lossy CAN bus carrying periodic frames
// from three stations plus a span per period and a gauge of the number
// of stations. The "body" trace spans
// several blocks and hits its cap, so it has records in more than one
// block, typed kernel lines, frame payloads and drops. inject, when not
// nil, is called with each kernel and its trace before the kernel runs.
func recordCANRun(env *Env, inject func(k *sim.Kernel, tr *Trace)) *Env {
	for _, sc := range []struct {
		name string
		seed uint64
	}{{"body", 1}, {"chassis", 2}} {
		k := env.Kernel(sc.name, sc.seed)
		bus := can.New(k, can.Config{Name: sc.name, BitsPerSecond: 500_000, FrameLossRate: 0.1})
		tr := Of(k).Tracer()
		Of(k).Metrics().Gauge("stations", Labels{Layer: "exp", ECU: sc.name}).Set(3)
		for i, src := range []string{"ecu1", "ecu2", "ecu3"} {
			bus.Attach(src, func(network.Delivery) {})
			msg := network.Message{ID: 0x100 + uint32(i), Src: src, Bytes: 8}
			var tick func()
			tick = func() {
				s := begin(tr, "app", "period", src, "")
				bus.Send(msg)
				end(tr, "app", "period", src, s, "")
				if k.Now() < sim.Time(100*sim.Millisecond) {
					k.After(sim.Millisecond, tick)
				}
			}
			k.At(sim.Time(sim.Duration(i)*100*sim.Microsecond), tick)
		}
		if inject != nil {
			inject(k, tr)
		}
		k.Run()
	}
	return env
}

// TestSameTraceCatchesDifferences records the same run twice: the two
// are SameTrace. Each variant changes one thing in the second recording
// and must make it differ: a record field in the last block, an
// interned string's text, one record fewer (its slot left as it was),
// the drop count, and a scope's name.
func TestSameTraceCatchesDifferences(t *testing.T) {
	body := func(e *Env) *Trace { return Of(e.scopes[0].k).Tracer() }
	base := recordCANRun(canEnv(), nil)
	tr := body(base)
	if tr.head == tr.tail || tr.Dropped == 0 {
		t.Fatalf("body trace: want several blocks and drops, got %d records, %d dropped", tr.n, tr.Dropped)
	}
	if !base.SameTrace(recordCANRun(canEnv(), nil)) {
		t.Fatal("two recordings of the same run are not SameTrace")
	}
	variants := []struct {
		name   string
		change func(e *Env)
	}{
		{"record field in last block", func(e *Env) {
			b := body(e).tail
			b.recs[b.n-1].ts++
		}},
		{"interned string", func(e *Env) {
			strs := body(e).strs
			strs[len(strs)-1] += "'"
		}},
		{"one record fewer", func(e *Env) {
			tr := body(e)
			tr.tail.n--
			tr.n--
		}},
		{"dropped", func(e *Env) { body(e).Dropped++ }},
		{"scope name", func(e *Env) { e.scopes[0].name = "Body" }},
	}
	for _, v := range variants {
		e := recordCANRun(canEnv(), nil)
		v.change(e)
		if base.SameTrace(e) || e.SameTrace(base) {
			t.Errorf("%s: changed recording is SameTrace", v.name)
		}
	}
	var none *Trace
	if !none.Same(nil) || none.Same(tr) || tr.Same(nil) {
		t.Error("a nil trace must equal only a nil trace")
	}
	short := &Env{Observe: true, scopes: base.scopes[:1]}
	if base.SameTrace(short) || short.SameTrace(base) {
		t.Error("Envs with different scope counts are SameTrace")
	}
}

// TestRecheckCatchesDifferences re-records recordCANRun as a checking
// run of a recorded one: the two are SameTrace. Each variant changes
// one thing while the checking run records, and must make it differ
// whichever side is the receiver: one extra record, one fewer, a field
// of the last record (which is still pending when the run ends), an
// interned string's text, the drop count, and an extra scope.
func TestRecheckCatchesDifferences(t *testing.T) {
	base := recordCANRun(canEnv(), nil)
	if chk := recordCANRun(base.Recheck(), nil); !base.SameTrace(chk) || !chk.SameTrace(base) {
		t.Fatal("a checking run of the same run is not SameTrace")
	}
	body := func(e *Env) *Trace { return Of(e.scopes[0].k).Tracer() }
	late := func(k *sim.Kernel, tr *Trace) {
		k.At(sim.Time(90*sim.Millisecond), func() { tr.Instant("app", "extra", "ecu1", "") })
	}
	variants := []struct {
		name   string
		inject func(k *sim.Kernel, tr *Trace)
		after  func(e *Env)
	}{
		{"one extra record", late, nil},
		{"one fewer record", nil, func(e *Env) {
			tr := body(e)
			tr.pending = false
			tr.n--
		}},
		{"record field in last block", nil, func(e *Env) { body(e).scratch.ts++ }},
		{"interned string", nil, func(e *Env) {
			strs := body(e).strs
			strs[len(strs)-1] += "'"
		}},
		{"dropped", nil, func(e *Env) { body(e).Dropped++ }},
		{"extra scope", nil, func(e *Env) { e.Kernel("extra", 3) }},
	}
	for _, v := range variants {
		chk := recordCANRun(base.Recheck(), v.inject)
		if v.after != nil {
			v.after(chk)
		}
		if base.SameTrace(chk) || chk.SameTrace(base) {
			t.Errorf("%s: changed checking run is SameTrace", v.name)
		}
	}
}

// TestRecheckStoresNothing: a checking run compares every record but
// holds no block, so it cannot be rendered, while its metrics are kept
// and dumped in full.
func TestRecheckStoresNothing(t *testing.T) {
	base := recordCANRun(canEnv(), nil)
	chk := recordCANRun(base.Recheck(), nil)
	for i, sc := range chk.Scopes() {
		if sc.Trace.head != nil || sc.Trace.tail != nil {
			t.Errorf("scope %s: checking trace holds blocks", sc.Name)
		}
		if want := base.Scopes()[i].Trace.Len(); sc.Trace.Len() != want {
			t.Errorf("scope %s: checking trace counted %d records, want %d", sc.Name, sc.Trace.Len(), want)
		}
	}
	if err := chk.WriteTrace(io.Discard); err == nil {
		t.Error("WriteTrace of a checking Env succeeded")
	}
	var want, got bytes.Buffer
	if err := base.WriteMetrics(&want); err != nil {
		t.Fatal(err)
	}
	if err := chk.WriteMetrics(&got); err != nil || !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("checking Env metrics differ (err %v):\n%s\nwant:\n%s", err, got.String(), want.String())
	}
}

// TestSameMetricsCatchesDifferences: two recordings of the same run are
// SameMetrics. Each variant changes one series in the second and must
// make them differ, whichever side is the receiver: a counter value, a
// gauge value, a histogram bucket, a series present on one side only,
// and a series' label.
func TestSameMetricsCatchesDifferences(t *testing.T) {
	reg := func(e *Env) *Registry { return Of(e.scopes[1].k).Metrics() }
	base := recordCANRun(canEnv(), nil)
	if !base.SameMetrics(recordCANRun(canEnv(), nil)) {
		t.Fatal("two recordings of the same run are not SameMetrics")
	}
	l := Labels{Layer: "network", Iface: "chassis"}
	variants := []struct {
		name   string
		change func(r *Registry)
	}{
		{"counter", func(r *Registry) { r.Counter("net_frames_enqueued", l).Inc() }},
		{"gauge", func(r *Registry) { r.Gauge("stations", Labels{Layer: "exp", ECU: "chassis"}).Add(1) }},
		{"histogram bucket", func(r *Registry) {
			h := r.Histogram("net_frame_latency", l)
			h.buckets[0]--
			h.buckets[1]++
		}},
		{"series on one side", func(r *Registry) { r.Counter("extra", l) }},
		{"label", func(r *Registry) {
			k := metricKey{"net_frames_lost", l}
			c := r.counters[k]
			delete(r.counters, k)
			k.l.ECU = "gw"
			r.counters[k] = c
		}},
	}
	for _, v := range variants {
		e := recordCANRun(canEnv(), nil)
		e.SameMetrics(e) // snapshot the kernels first, as WriteMetrics does
		v.change(reg(e))
		if base.SameMetrics(e) || e.SameMetrics(base) {
			t.Errorf("%s: changed metrics are SameMetrics", v.name)
		}
	}
	var none *Registry
	if !none.Same(nil) || none.Same(reg(base)) || reg(base).Same(nil) {
		t.Error("a nil registry must equal only a nil registry")
	}
}
