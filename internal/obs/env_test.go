package obs

import (
	"bytes"
	"strings"
	"testing"

	"dynaplat/internal/sim"
)

// A nil Env hands out plain kernels. A non-nil Env keeps one scope per
// kernel in call order; when it observes it also installs a plane as the
// kernel's observer, applies TraceCap, records k.Trace lines and
// snapshots each kernel's invariant gauges when the metrics are written.
func TestEnvKernel(t *testing.T) {
	var nilEnv *Env
	if k := nilEnv.Kernel("x", 1); k == nil || k.Observer() != nil {
		t.Fatalf("nil Env: kernel %v", k)
	}
	plain := &Env{}
	k := plain.Kernel("x", 1)
	o := Of(k)
	if sc := plain.Scopes(); o != nil || len(sc) != 1 || sc[0].Kernel != k || sc[0].Trace != nil {
		t.Fatalf("non-observing Env: plane %v, scopes %+v", o, sc)
	}
	var mb bytes.Buffer
	if err := plain.WriteMetrics(&mb); err != nil || mb.Len() != 0 || plain.Summary() != "(not instrumented)" {
		t.Errorf("non-observing Env wrote metrics %q (err %v), summary %q", mb.String(), err, plain.Summary())
	}

	env := &Env{Observe: true, TraceCap: 2}
	for _, name := range []string{"b", "a"} {
		k := env.Kernel(name, 7)
		if Of(k) == nil {
			t.Fatal("observing Env installed no plane")
		}
		for i := 0; i < 3; i++ {
			k.At(sim.Time(i), func() { k.Trace("cat", "line %d", i) })
		}
		k.Run()
	}
	scopes := env.Scopes()
	if len(scopes) != 2 || scopes[0].Name != "b" || scopes[1].Name != "a" {
		t.Fatalf("scopes = %+v, want b then a", scopes)
	}
	if n := scopes[0].Trace.Len(); n != 2 || scopes[0].Trace.Dropped != 1 {
		t.Errorf("scope b kept %d records, dropped %d; want 2 and 1", n, scopes[0].Trace.Dropped)
	}
	var tb bytes.Buffer
	mb.Reset()
	if err := env.WriteMetrics(&mb); err != nil {
		t.Fatal(err)
	}
	if err := env.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	want := "# scope b\ngauge kernel_canceled{layer=sim,ecu=,iface=} 0\ngauge kernel_fired{layer=sim,ecu=,iface=} 3\n"
	if !strings.HasPrefix(mb.String(), want) || !strings.Contains(mb.String(), "# scope a\n") {
		t.Errorf("metrics dump:\n%s\nwant prefix:\n%s", mb.String(), want)
	}
	if !strings.Contains(tb.String(), `"line 0"`) {
		t.Errorf("trace lacks the kernel line:\n%s", tb.String())
	}
	if got := env.Summary(); got != "2 scopes, 4 trace records (2 dropped)" {
		t.Errorf("Summary = %q", got)
	}
}
