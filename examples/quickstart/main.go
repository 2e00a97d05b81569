// Quickstart: model a two-ECU vehicle in the DSL, validate it, simulate
// one virtual second and print what the deterministic brake application
// did. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dynaplat"
)

const vehicle = `
system Quickstart
ecu CPM  cpu=400MHz mem=4MB mmu crypto os=rtos cost=40
ecu Head cpu=1GHz   mem=64MB mmu os=posix cost=25
network Backbone type=ethernet rate=100Mbps attach=CPM,Head

app Brake kind=da  asil=D period=10ms wcet=2ms deadline=10ms jitter=1ms mem=64KB on=CPM
app Dash  kind=nda asil=QM mem=8MB on=Head

iface BrakeStatus owner=Brake paradigm=event payload=16B period=10ms latency=8ms net=Backbone
bind Dash -> BrakeStatus
`

func main() {
	// 1. Parse and validate the model (the paper's §2.2 verification
	// engine runs inside FromDSL as well — this is just to show it).
	sys, err := dynaplat.ParseModel(vehicle)
	if err != nil {
		log.Fatal(err)
	}
	if findings, ok := dynaplat.ValidateModel(sys); !ok {
		log.Fatalf("model invalid: %v", findings)
	}

	// 2. Build the full simulation: networks, middleware, platform.
	s, err := dynaplat.FromModel(sys, dynaplat.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Give the brake a behavior: publish its status every activation.
	brakeEp, _ := s.Endpoint("Brake")
	s.App("Brake").Behavior.OnActivate = func(job int64) {
		brakeEp.Publish("BrakeStatus", 16, job)
	}

	// 4. The dashboard subscribes (binding is authorized against the
	// model-declared access matrix when an authorizer is installed).
	received := 0
	dashEp, _ := s.Endpoint("Dash")
	if err := dashEp.Subscribe("BrakeStatus", func(ev dynaplat.Event) {
		received++
	}); err != nil {
		log.Fatal(err)
	}

	// 5. Run one virtual second.
	if err := s.StartAll(); err != nil {
		log.Fatal(err)
	}
	s.Run(1 * dynaplat.Second)

	brake := s.App("Brake")
	fmt.Printf("brake: %d activations, %d deadline misses, worst response %v\n",
		brake.Activations, brake.Misses, brake.Response.MaxDuration())
	fmt.Printf("dash:  received %d brake status events\n", received)
	fmt.Printf("CPM deterministic utilization: %.2f\n", s.Node("CPM").Utilization())
}
