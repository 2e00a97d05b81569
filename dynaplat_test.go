package dynaplat

import (
	"strings"
	"testing"
)

const demoDSL = `
system Demo
ecu CPM cpu=400MHz mem=4MB mmu crypto os=rtos cost=40
ecu Zone cpu=200MHz mem=1MB mmu os=rtos cost=12
ecu Head cpu=1000MHz mem=64MB mmu os=posix cost=25
network Backbone type=ethernet rate=100Mbps attach=CPM,Zone,Head
network Body type=can rate=500kbps attach=CPM,Zone
app Brake kind=da asil=D period=10ms wcet=2ms deadline=10ms jitter=1ms mem=64KB on=CPM
app Suspension kind=da asil=C period=5ms wcet=1ms mem=64KB on=Zone
app Media kind=nda asil=QM mem=4MB on=Head
iface BrakeStatus owner=Brake paradigm=event payload=16B period=10ms latency=8ms net=Backbone
bind Media -> BrakeStatus
`

func TestFromDSLEndToEnd(t *testing.T) {
	s, err := FromDSL(demoDSL, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Networks) != 2 {
		t.Fatalf("networks = %d", len(s.Networks))
	}
	// Consumer subscribes through the facade endpoint.
	media, err := s.Endpoint("Media")
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	if err := media.Subscribe("BrakeStatus", func(Event) { events++ }); err != nil {
		t.Fatal(err)
	}
	// Brake publishes its status on every activation.
	brakeEp, _ := s.Endpoint("Brake")
	s.App("Brake").Behavior.OnActivate = func(int64) {
		brakeEp.Publish("BrakeStatus", 16, nil)
	}
	if err := s.StartAll(); err != nil {
		t.Fatal(err)
	}
	s.Run(1 * Second)
	brake := s.App("Brake")
	if brake.Activations != 100 {
		t.Errorf("brake activations = %d, want 100", brake.Activations)
	}
	if brake.Misses != 0 {
		t.Errorf("brake misses = %d", brake.Misses)
	}
	if events != 100 {
		t.Errorf("delivered events = %d, want 100", events)
	}
	if s.Node("CPM") == nil || s.Node("Ghost") != nil {
		t.Error("Node lookup wrong")
	}
	if s.App("Ghost") != nil {
		t.Error("App(Ghost) non-nil")
	}
	if _, err := s.Endpoint("Ghost"); err == nil {
		t.Error("Endpoint(Ghost) succeeded")
	}
}

func TestFromDSLRejectsInvalid(t *testing.T) {
	bad := strings.Replace(demoDSL, "on=CPM", "on=Head", 1) // DA on POSIX
	if _, err := FromDSL(bad, Options{}); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := FromDSL("ecu X cpu=wat", Options{}); err == nil {
		t.Error("syntax error accepted")
	}
	sys, err := ParseModel(demoDSL)
	if err != nil {
		t.Fatal(err)
	}
	sys.Placement["Brake"] = "Head"
	if _, err := FromModel(sys, Options{}); err == nil {
		t.Error("FromModel accepted an invalid model")
	}
}

func TestFromDSLUsesEthernetRate(t *testing.T) {
	latency := map[string]Duration{}
	for _, rate := range []string{"100Mbps", "1Gbps"} {
		s, err := FromDSL(strings.Replace(demoDSL, "rate=100Mbps", "rate="+rate, 1), Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		media, _ := s.Endpoint("Media")
		if err := media.Subscribe("BrakeStatus", func(ev Event) { latency[rate] += ev.Latency() }); err != nil {
			t.Fatal(err)
		}
		brake, _ := s.Endpoint("Brake")
		s.App("Brake").Behavior.OnActivate = func(int64) { brake.Publish("BrakeStatus", 16, nil) }
		if err := s.StartAll(); err != nil {
			t.Fatal(err)
		}
		s.Run(100 * Millisecond)
	}
	if latency["1Gbps"] == 0 || latency["1Gbps"] >= latency["100Mbps"] {
		t.Errorf("summed event latency at 1Gbps = %v, at 100Mbps = %v: want the faster link faster",
			latency["1Gbps"], latency["100Mbps"])
	}
}

func TestValidateModelFacade(t *testing.T) {
	sys, err := ParseModel(demoDSL)
	if err != nil {
		t.Fatal(err)
	}
	if findings, ok := ValidateModel(sys); !ok {
		t.Errorf("demo invalid: %v", findings)
	}
	sys.Placement["Brake"] = "Head"
	findings, ok := ValidateModel(sys)
	if ok {
		t.Error("broken model validated")
	}
	found := false
	for _, f := range findings {
		if strings.Contains(f, "da-needs-rtos") {
			found = true
		}
	}
	if !found {
		t.Errorf("findings = %v", findings)
	}
}

func TestFromDSLWithFlexRay(t *testing.T) {
	dsl := `
system FR
ecu A cpu=100MHz mem=1MB mmu os=rtos
ecu B cpu=100MHz mem=1MB mmu os=rtos
network Chassis type=flexray rate=10Mbps attach=A,B
app P kind=da asil=C period=10ms wcet=1ms mem=64KB on=A
app C kind=nda mem=64KB on=B
iface Pos owner=P paradigm=event payload=16B period=10ms net=Chassis
bind C -> Pos
`
	s, err := FromDSL(dsl, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	ep, _ := s.Endpoint("C")
	if err := ep.Subscribe("Pos", func(Event) { got++ }); err != nil {
		t.Fatal(err)
	}
	pEp, _ := s.Endpoint("P")
	s.App("P").Behavior.OnActivate = func(int64) { pEp.Publish("Pos", 16, nil) }
	s.StartAll()
	s.Run(500 * Millisecond)
	if got < 40 {
		t.Errorf("FlexRay deliveries = %d, want ~50", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() int64 {
		s, err := FromDSL(demoDSL, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		s.StartAll()
		s.Run(2 * Second)
		return s.App("Suspension").Activations + int64(s.Kernel.EventCount)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs diverged: %d vs %d", a, b)
	}
}
