package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dynaplat/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the renderer golden files in testdata")

// goldenScopes is a hand-built input that reaches every branch of the
// Chrome renderer: all four record phases plus metadata, strings that
// need each kind of escape, a sub-µs timestamp, several tracks per
// scope, and a nil-trace scope between two traced ones.
func goldenScopes() []Scope {
	k := sim.NewKernel(1)
	tr := NewTrace(k)
	var sp Span
	k.At(sim.Time(0), func() {
		tr.Instant("kernel", "start", "kernel", "")
		sp = begin(tr, "net", `frame "x"\path`, "can:body", "id=0x12\tsrc->*")
	})
	k.At(sim.Time(1500), func() {
		tr.Instant("mode", string([]byte{'m', 0x01, 0x1f, 0x7f}), "modes", "line1\nline2\r")
		end(tr, "net", `frame "x"\path`, "can:body", sp, `delivered "ecu\2"`)
	})
	k.At(sim.Time(2*sim.Millisecond), func() {
		s := begin(tr, "soa", "deliver", "soa:Speed", "app->sink")
		tr.Complete("platform", "job µs", "ecu:ecu1", sim.Time(1999_999), sim.Duration(2500), "ok")
		tr.Complete("platform", "job", "ecu:ecu1", sim.Time(3*sim.Millisecond), sim.Duration(999), "")
		end(tr, "soa", "deliver", "soa:Speed", s, "")
	})
	k.At(sim.Time(7*sim.Second+42), func() {
		tr.Instant("faults", "inject\tcrash", `trk "q"`, "\x00\x08\x0c")
	})
	k.Run()

	k2 := sim.NewKernel(2)
	tr2 := NewTrace(k2)
	k2.At(sim.Time(10*sim.Microsecond), func() {
		tr2.Instant("reconfig", "plan", "reconfig", "ecu2: moved 3 apps")
	})
	k2.Run()

	return []Scope{
		{Name: `E21/"campaign"`, Trace: tr},
		{Name: "unobserved", Trace: nil},
		{Name: "E22\\reconfig", Trace: tr2},
	}
}

// goldenRegistry holds counters, gauges (one negative) and histograms
// whose durations print in every unit, with non-zero buckets.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("net_frames_enqueued", Labels{Layer: "network", Iface: "body"}).Add(1234)
	r.Counter("net_frames_enqueued", Labels{Layer: "network", Iface: "chassis"}).Add(0)
	r.Counter("soa_published", Labels{Layer: "soa", ECU: "ecu1", Iface: "Speed"}).Inc()
	r.Gauge("mode", Labels{Layer: "platform"}).Set(-3)
	r.Gauge("kernel_queue_peak", Labels{Layer: "sim"}).Set(1 << 40)
	h := r.Histogram("net_frame_latency", Labels{Layer: "network", Iface: "body"})
	for _, d := range []sim.Duration{
		500, sim.Microsecond, 7 * sim.Microsecond, 250 * sim.Microsecond,
		3 * sim.Millisecond, 40 * sim.Millisecond, 900 * sim.Millisecond, 2 * sim.Second,
	} {
		h.Observe(d)
	}
	r.Histogram("soa_latency", Labels{Layer: "soa", ECU: "ecu2", Iface: "Brake"}).Observe(3 * sim.Second)
	r.Histogram("empty", Labels{Layer: "x"})
	r.Histogram("sub_us", Labels{Layer: "x"}).Observe(1001)
	r.Histogram("units", Labels{Layer: "x", ECU: "ms"}).Observe(3 * sim.Millisecond)
	r.Histogram("units", Labels{Layer: "x", ECU: "us"}).Observe(250 * sim.Microsecond)
	return r
}

// The renderers must reproduce the committed golden files byte for
// byte. The files pin the exact output format, so any rewrite of the
// renderers has to keep it. Regenerate with -update only when the format
// is meant to change.
func TestRendererGolden(t *testing.T) {
	var trace, metrics bytes.Buffer
	if err := WriteChromeTrace(&trace, goldenScopes()); err != nil {
		t.Fatal(err)
	}
	if err := goldenRegistry().WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"chrome_golden.json", trace.Bytes()},
		{"metrics_golden.txt", metrics.Bytes()},
	} {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: rendered output differs from golden\n--- got\n%s\n--- want\n%s", g.file, g.got, want)
		}
	}
}
