package dynaplat

// One benchmark per experiment in EXPERIMENTS.md (E1–E24). Each
// iteration regenerates the experiment's full result table on the
// simulated substrate; the custom "holds" metric reports whether the
// paper-derived expectation held (1) or not (0), so a bench run doubles
// as a reproduction check:
//
//	go test -bench=. -benchmem
//
// E1, E21, E22 and E24 fan their sweep cells out across GOMAXPROCS
// workers, so their rows time a parallel run; -cpu 1 times them serially.
//
// Use cmd/exprun to print the tables themselves.

import (
	"sync/atomic"
	"testing"

	"dynaplat/internal/experiments"
	"dynaplat/internal/fleet"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	holds := 1.0
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if !t.Holds {
			holds = 0
		}
	}
	b.ReportMetric(holds, "holds")
}

func BenchmarkE1MixedCriticality(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2Paradigms(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3ScheduleSynthesis(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4CommInterference(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkE5StagedUpdate(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6DistributedUpdate(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7Failover(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8Monitoring(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9PackageSecurity(b *testing.B)   { benchExperiment(b, "E9") }
func BenchmarkE10AuthBinding(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11DSE(b *testing.B)              { benchExperiment(b, "E11") }
func BenchmarkE12SecurityAnalysis(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13XiL(b *testing.B)              { benchExperiment(b, "E13") }
func BenchmarkE14MemorySeparation(b *testing.B) { benchExperiment(b, "E14") }
func BenchmarkE15Consolidation(b *testing.B)    { benchExperiment(b, "E15") }
func BenchmarkE16ClockSync(b *testing.B)        { benchExperiment(b, "E16") }
func BenchmarkE17E2EProtection(b *testing.B)    { benchExperiment(b, "E17") }
func BenchmarkE18GatewayBridge(b *testing.B)    { benchExperiment(b, "E18") }
func BenchmarkE19ServiceDiscovery(b *testing.B) { benchExperiment(b, "E19") }
func BenchmarkE20ParetoFront(b *testing.B)      { benchExperiment(b, "E20") }
func BenchmarkE21FaultCampaign(b *testing.B)    { benchExperiment(b, "E21") }
func BenchmarkE22Reconfig(b *testing.B)         { benchExperiment(b, "E22") }
func BenchmarkE23FleetRollout(b *testing.B)     { benchExperiment(b, "E23") }
func BenchmarkE24MeshOverload(b *testing.B)     { benchExperiment(b, "E24") }

// BenchmarkFleetRollout measures raw fleet-simulation throughput: one
// 500-vehicle sharded campaign (heterogeneous variants, verified staged
// updates, 10% seeded bad images) per iteration, reported as
// vehicles/min. The fleet layer's sizing target is ≥10k vehicles/minute.
func BenchmarkFleetRollout(b *testing.B) {
	vehicles := 0
	for i := 0; i < b.N; i++ {
		rep, err := fleet.RunCampaign(fleet.CampaignConfig{
			FleetSeed: 0xBE7C4, Vehicles: 500,
			Update: fleet.UpdateSpec{Verify: true, FaultProb: 0.1},
		})
		if err != nil {
			b.Fatal(err)
		}
		vehicles += len(rep.Vehicles)
	}
	b.ReportMetric(float64(vehicles)/b.Elapsed().Minutes(), "vehicles/min")
}

// BenchmarkEndToEndSimulation measures the facade's full-vehicle
// simulation throughput (virtual seconds simulated per wall run).
func BenchmarkEndToEndSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := FromDSL(demoDSL, Options{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.StartAll(); err != nil {
			b.Fatal(err)
		}
		s.Run(1 * Second)
	}
}

// BenchmarkEndToEndSimulationParallel is the RunParallel variant: one
// independent simulation (own kernel, own seed) per goroutine iteration.
// On multicore hardware aggregate throughput scales with GOMAXPROCS;
// each individual simulation remains bit-deterministic for its seed.
func BenchmarkEndToEndSimulationParallel(b *testing.B) {
	var seed atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s, err := FromDSL(demoDSL, Options{Seed: seed.Add(1)})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.StartAll(); err != nil {
				b.Fatal(err)
			}
			s.Run(1 * Second)
		}
	})
}
