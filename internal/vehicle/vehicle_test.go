package vehicle

import (
	"bytes"
	"strings"
	"testing"

	"dynaplat/internal/can"
	"dynaplat/internal/faults"
	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/obs"
	"dynaplat/internal/platform"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
)

// pubSub is a two-ECU vehicle: Ctl on A publishes CtlOut over the
// network NET, which Gw on B consumes. NET is substituted per case.
const pubSub = `
system PubSub
ecu A cpu=100MHz mem=1MB mmu os=rtos
ecu B cpu=100MHz mem=1MB mmu os=rtos
NET
app Ctl kind=da asil=D period=10ms wcet=1ms mem=64KB on=A
app Gw kind=nda asil=QM mem=64KB on=B
iface CtlOut owner=Ctl paradigm=event payload=20B period=10ms net=Bus
bind Gw -> CtlOut
`

func withNet(net string) string { return strings.Replace(pubSub, "NET", net, 1) }

// result is the application-visible outcome of running a built vehicle.
type result struct {
	activations, delivered int64
	latency                sim.Duration
}

// runPubSub wires Ctl to publish a 20-byte sample per activation and Gw
// to count them, then runs the vehicle for d.
func runPubSub(t *testing.T, k *sim.Kernel, v *Vehicle, d sim.Duration) result {
	t.Helper()
	var r result
	if err := v.Middleware.Endpoint("Gw", "B").Subscribe("CtlOut", func(ev soa.Event) {
		r.delivered++
		r.latency += ev.Latency()
	}); err != nil {
		t.Fatal(err)
	}
	ctl := v.Platform.Node("A").App("Ctl")
	ep := v.Middleware.Endpoint("Ctl", "A")
	ctl.Behavior.OnActivate = func(int64) { ep.Publish("CtlOut", 20, nil) }
	if err := v.Platform.StartAll(); err != nil {
		t.Fatal(err)
	}
	k.RunFor(d)
	r.activations = ctl.Activations
	return r
}

// frameDelivery sends one frame from src to dst on net at the current
// instant and returns when it arrives.
func frameDelivery(t *testing.T, k *sim.Kernel, net network.Network, class network.Class, bytes int, src, dst string) sim.Time {
	t.Helper()
	var at sim.Time
	net.Attach(src, func(network.Delivery) {})
	net.Attach(dst, func(network.Delivery) { at = k.Now() })
	net.Send(network.Message{ID: 1, Src: src, Dst: dst, Class: class, Bytes: bytes})
	k.RunFor(10 * sim.Millisecond)
	if at == 0 {
		t.Fatalf("frame %s -> %s never delivered", src, dst)
	}
	return at
}

func TestBuild(t *testing.T) {
	type build func(dsl string, cfg Config) (*sim.Kernel, *Vehicle, error)
	cases := []struct {
		name  string
		check func(t *testing.T, b build)
	}{
		{"can uses worst-case stuffing and MTU 8", func(t *testing.T, b build) {
			k, v, err := b(withNet("network Bus type=can rate=500kbps attach=A,B"), Config{})
			if err != nil {
				t.Fatal(err)
			}
			if r := runPubSub(t, k, v, 5*sim.Millisecond); r.delivered != 1 {
				t.Fatalf("delivered = %d, want 1", r.delivered)
			}
			var want int64
			for rest := soa.HeaderSize + 20; rest > 0; rest -= can.MaxPayload {
				want += can.FrameBits(min(rest, can.MaxPayload), true)
			}
			if got := v.Networks["Bus"].(*can.Bus).BitsSent; got != want {
				t.Errorf("bits sent = %d, want %d (stuffed 8-byte frames)", got, want)
			}
		}},
		{"flexray gives attached ECUs static slots in attach order", func(t *testing.T, b build) {
			dsl := withNet("network Bus type=flexray rate=10Mbps attach=B,A")
			slot := map[string]sim.Time{}
			for _, src := range []string{"A", "B"} {
				k, v, err := b(dsl, Config{})
				if err != nil {
					t.Fatal(err)
				}
				slot[src] = frameDelivery(t, k, v.Networks["Bus"], network.ClassControl, 8, src, "sink")
			}
			// B owns slot 0 and A slot 1: each frame leaves at its
			// owner's slot end in the first cycle.
			if slot["B"] != sim.Time(100*sim.Microsecond) || slot["A"] != sim.Time(200*sim.Microsecond) {
				t.Errorf("static deliveries B=%v A=%v, want 100µs and 200µs", slot["B"], slot["A"])
			}
		}},
		{"ethernet uses the model rate", func(t *testing.T, b build) {
			at := map[string]sim.Time{}
			for _, rate := range []string{"100Mbps", "1Gbps"} {
				k, v, err := b(withNet("network Bus type=ethernet rate="+rate+" attach=A,B"), Config{})
				if err != nil {
					t.Fatal(err)
				}
				at[rate] = frameDelivery(t, k, v.Networks["Bus"], network.ClassBulk, 1400, "A", "B")
			}
			if at["1Gbps"] >= at["100Mbps"] {
				t.Errorf("1 Gbit/s delivery at %v, not faster than 100 Mbit/s at %v", at["1Gbps"], at["100Mbps"])
			}
		}},
		{"fault layer only with Config.Faults", func(t *testing.T, b build) {
			dsl := withNet("network Bus type=ethernet rate=100Mbps attach=A,B")
			_, plain, err := b(dsl, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, wrapped := plain.Networks["Bus"].(*faults.NetFaults); wrapped || len(plain.Faults) != 0 {
				t.Errorf("plain build has a fault layer: %T, %d layers", plain.Networks["Bus"], len(plain.Faults))
			}
			cfg := faults.NetConfig{LossRate: 0.25}
			_, faulty, err := b(dsl, Config{Faults: &cfg})
			if err != nil {
				t.Fatal(err)
			}
			nf, wrapped := faulty.Networks["Bus"].(*faults.NetFaults)
			if !wrapped || len(faulty.Faults) != 1 || faulty.Faults[0] != nf || nf.Config() != cfg {
				t.Errorf("faulty build: %T, %d layers", faulty.Networks["Bus"], len(faulty.Faults))
			}
		}},
		{"observed build matches plain", func(t *testing.T, b build) {
			dsl := withNet("network Bus type=can rate=500kbps attach=A,B")
			k, v, err := b(dsl, Config{Faults: &faults.NetConfig{LossRate: 0.1}})
			if err != nil {
				t.Fatal(err)
			}
			plain := runPubSub(t, k, v, 200*sim.Millisecond)

			k = (&obs.Env{Observe: true}).Kernel("observed", 1)
			o := obs.Of(k)
			v, err = Build(k, model.MustParse(dsl), Config{Faults: &faults.NetConfig{LossRate: 0.1}})
			if err != nil {
				t.Fatal(err)
			}
			if observed := runPubSub(t, k, v, 200*sim.Millisecond); observed != plain {
				t.Errorf("observed %+v, plain %+v", observed, plain)
			}
			if plain.delivered == 0 || plain.delivered == plain.activations {
				t.Errorf("plain %+v: want some but not all samples lost", plain)
			}
			var m bytes.Buffer
			if err := o.Metrics().WriteText(&m); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"net_frames_delivered", "soa_deliveries", "plat_jobs"} {
				if !strings.Contains(m.String(), name) {
					t.Errorf("observed metrics lack %s", name)
				}
			}
		}},
		{"placed DA lands on its ECU and activates", func(t *testing.T, b build) {
			k, v, err := b(withNet("network Bus type=ethernet rate=100Mbps attach=A,B"), Config{})
			if err != nil {
				t.Fatal(err)
			}
			if inst, node := v.Platform.FindApp("Ctl"); inst == nil || node.ECU().Name != "A" {
				t.Fatal("Ctl not installed on A")
			}
			if r := runPubSub(t, k, v, 50*sim.Millisecond); r.activations != 5 || r.delivered != 5 {
				t.Errorf("activations = %d, delivered = %d, want 5 each", r.activations, r.delivered)
			}
		}},
		{"unplaced app is skipped", func(t *testing.T, b build) {
			_, v, err := b(`
ecu E cpu=100MHz mem=1MB mmu os=rtos
app Floating kind=nda mem=64KB
`, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if v.Platform.Node("E") == nil || v.Platform.Node("E").App("Floating") != nil {
				t.Error("unplaced app installed, or its ECU has no node")
			}
		}},
		{"DA on a POSIX ECU is an error", func(t *testing.T, b build) {
			_, _, err := b(`
ecu Head cpu=1000MHz mem=64MB mmu os=posix
app Brake kind=da asil=D period=10ms wcet=2ms mem=64KB on=Head
`, Config{Mode: platform.ModeShared})
			if err == nil {
				t.Error("DA installed on a POSIX ECU")
			}
		}},
		{"app on an unknown ECU is an error", func(t *testing.T, b build) {
			if _, _, err := b(strings.Replace(withNet(""), "on=B", "on=Ghost", 1), Config{}); err == nil {
				t.Error("app placed on an unknown ECU was built")
			}
		}},
		{"interface on an unknown network is an error", func(t *testing.T, b build) {
			if _, _, err := b(withNet(""), Config{}); err == nil {
				t.Error("interface on an unknown network was built")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.check(t, func(dsl string, cfg Config) (*sim.Kernel, *Vehicle, error) {
				k := sim.NewKernel(1)
				v, err := Build(k, model.MustParse(dsl), cfg)
				return k, v, err
			})
		})
	}
}
