// Mixedcriticality demonstrates the paper's Figure 2 end to end: an
// ASIL-D control application and a bursty infotainment application share
// one consolidated ECU. With the dynamic platform's time-triggered
// isolation the control app never misses a deadline no matter how hard
// infotainment hammers the CPU; the same scenario on a conventional
// shared scheduler misses constantly. Run with:
//
//	go run ./examples/mixedcriticality
package main

import (
	"fmt"
	"log"

	"dynaplat"
)

const vehicle = `
system MixedCriticality
ecu CPM cpu=200MHz mem=16MB mmu os=rtos cost=40
app Lane  kind=da  asil=D period=10ms wcet=4ms deadline=10ms jitter=1ms mem=512KB on=CPM
app Cruise kind=da asil=C period=20ms wcet=4ms deadline=20ms mem=256KB on=CPM
app Media kind=nda asil=QM mem=8MB on=CPM
`

func run(mode dynaplat.Mode) {
	s, err := dynaplat.FromDSL(vehicle, dynaplat.Options{Seed: 99, Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	if err := s.StartAll(); err != nil {
		log.Fatal(err)
	}

	// Infotainment floods the CPU with oversized decode jobs.
	media := s.App("Media")
	var pump func()
	pump = func() { media.Submit(30*dynaplat.Millisecond, pump) }
	pump()

	s.Run(10 * dynaplat.Second)

	fmt.Printf("mode=%-8s  ", mode)
	for _, name := range []string{"Lane", "Cruise"} {
		a := s.App(name)
		fmt.Printf("%s: %d/%d missed (worst %v)   ", name, a.Misses,
			a.Activations, a.Response.MaxDuration())
	}
	fmt.Printf("Media jobs: %d\n", media.JobsDone)
}

func main() {
	fmt.Println("Figure 2: DA + NDA on one ECU, infotainment overload")
	run(dynaplat.ModeIsolated) // the dynamic platform
	run(dynaplat.ModeShared)   // conventional shared scheduling
	fmt.Println("\nisolated mode keeps every control deadline; shared mode does not.")
}
