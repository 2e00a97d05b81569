package obs

import (
	"testing"

	"dynaplat/internal/can"
	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

// recordCANRun records a small observed run the way a workload does:
// one Env, two kernels, each with a lossy CAN bus carrying periodic
// frames from three stations plus a span per period. The "body" trace
// spans several blocks and hits its cap, so it has records in more than
// one block, typed kernel lines, frame payloads and drops.
func recordCANRun() *Env {
	env := &Env{Observe: true, TraceCap: 1500}
	for _, sc := range []struct {
		name string
		seed uint64
	}{{"body", 1}, {"chassis", 2}} {
		k := env.Kernel(sc.name, sc.seed)
		bus := can.New(k, can.Config{Name: sc.name, BitsPerSecond: 500_000, FrameLossRate: 0.1})
		tr := Of(k).Tracer()
		for i, src := range []string{"ecu1", "ecu2", "ecu3"} {
			bus.Attach(src, func(network.Delivery) {})
			msg := network.Message{ID: 0x100 + uint32(i), Src: src, Bytes: 8}
			var tick func()
			tick = func() {
				s := tr.Begin("app", "period", src, "")
				bus.Send(msg)
				tr.End("app", "period", src, s, "")
				if k.Now() < sim.Time(100*sim.Millisecond) {
					k.After(sim.Millisecond, tick)
				}
			}
			k.At(sim.Time(sim.Duration(i)*100*sim.Microsecond), tick)
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
	base := recordCANRun()
	tr := body(base)
	if tr.head == tr.tail || tr.Dropped == 0 {
		t.Fatalf("body trace: want several blocks and drops, got %d records, %d dropped", tr.n, tr.Dropped)
	}
	if !base.SameTrace(recordCANRun()) {
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
		e := recordCANRun()
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
