package dse

import (
	"fmt"
	"math"
	"testing"

	"dynaplat/internal/model"
	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
	"dynaplat/internal/workload"
)

// oracleEvaluate is the reference the compiled evaluator must match
// exactly: full model.Validate on the placed system, then per-ECU
// response-time analysis with the EDF-synthesis fallback over AppsOn,
// then the cross-ECU load of every binding.
func oracleEvaluate(sys *model.System, w Weights) (Cost, bool) {
	if rep := model.Validate(sys); !rep.OK() {
		return Cost{Total: math.Inf(1)}, false
	}
	var c Cost
	for _, e := range sys.ECUs {
		apps := sys.AppsOn(e.Name)
		if len(apps) == 0 {
			continue
		}
		c.UsedECUs++
		c.ECUCost += e.Cost
		if u := sys.ECUUtilization(e); u > c.MaxUtil {
			c.MaxUtil = u
		}
		if tasks := e.Tasks(apps); len(tasks) > 0 {
			if _, ok, err := sched.ResponseTimeAnalysis(tasks); err != nil || !ok {
				if _, err := sched.Synthesize(tasks, sim.Millisecond); err != nil {
					return Cost{Total: math.Inf(1)}, false
				}
			}
		}
	}
	for _, b := range sys.Bindings {
		ifc := sys.Interface(b.Interface)
		if ifc == nil {
			continue
		}
		pEcu, pOK := sys.Placement[ifc.Owner]
		cEcu, cOK := sys.Placement[b.Client]
		if pOK && cOK && pEcu != cEcu {
			c.CrossMbps += ifc.NominalBitsPerSecond() / 1e6
		}
	}
	c.Total = w.ECUCost*float64(c.ECUCost) + w.MaxUtil*c.MaxUtil + w.CrossComm*c.CrossMbps
	return c, true
}

// checkAgainstOracle scores place on sp and requires the result, and the
// public Evaluate of the materialized placement, to equal the oracle's.
func checkAgainstOracle(t *testing.T, sys *model.System, sp *space, place []int32) bool {
	t.Helper()
	w := DefaultWeights()
	probe := sys.Clone()
	probe.Placement = sp.placement(place)
	want, wantOK := oracleEvaluate(probe, w)
	got, gotOK := sp.score(place, w)
	if got != want || gotOK != wantOK {
		t.Fatalf("compiled score %+v (ok=%v), oracle %+v (ok=%v) for %v",
			got, gotOK, want, wantOK, probe.Placement)
	}
	if got, gotOK := Evaluate(probe, w); got != want || gotOK != wantOK {
		t.Fatalf("Evaluate %+v (ok=%v), oracle %+v (ok=%v) for %v",
			got, gotOK, want, wantOK, probe.Placement)
	}
	return wantOK
}

// speedSystem has two RTOS ECUs of different speed and deterministic
// apps with deadlines well below their periods: an app set can be
// schedulable on the fast ECU and not on the slow one at a utilization
// below 1, so a schedulability memo that ignored the ECU would answer
// wrongly.
func speedSystem() *model.System {
	return model.MustParse(`
system Speed
ecu Slow cpu=100MHz mem=4MB mmu os=rtos cost=10
ecu Fast cpu=400MHz mem=4MB mmu os=rtos cost=30
network BB type=ethernet rate=1Gbps attach=Slow,Fast
app A kind=da asil=D period=10ms wcet=2ms deadline=3ms mem=16KB
app B kind=da asil=D period=10ms wcet=2ms deadline=3ms mem=16KB
app C kind=da asil=D period=20ms wcet=1ms deadline=4ms mem=16KB
app D kind=da asil=D period=20ms wcet=3ms deadline=5ms mem=16KB
iface AOut owner=A paradigm=event payload=8B period=10ms net=BB
bind B -> AOut
bind D -> AOut
`)
}

// wideSystem has more than 64 deterministic apps, so one ECU's task-set
// bitset spans several words.
func wideSystem() *model.System {
	sys := model.MustParse(`
system Wide
ecu R0 cpu=800MHz mem=64MB mmu os=rtos cost=20
ecu R1 cpu=400MHz mem=64MB mmu os=rtos cost=15
ecu R2 cpu=200MHz mem=64MB mmu os=rtos cost=10
network BB type=ethernet rate=1Gbps attach=R0,R1,R2
`)
	for i := 0; i < 70; i++ {
		p := sim.Duration(10+10*(i%4)) * sim.Millisecond
		sys.Apps = append(sys.Apps, &model.App{
			Name: fmt.Sprintf("da%02d", i), Kind: model.Deterministic, ASIL: model.ASILB,
			Period: p, WCET: p / 80, Deadline: p - sim.Duration(i%3)*sim.Millisecond,
			MemoryKB: 64,
		})
	}
	sys.Interfaces = append(sys.Interfaces, &model.Interface{Name: "da00.out", Owner: "da00",
		PayloadBytes: 8, Period: 10 * sim.Millisecond, Network: "BB"})
	for i := 1; i < 70; i += 7 {
		sys.Bindings = append(sys.Bindings, model.Binding{Client: fmt.Sprintf("da%02d", i), Interface: "da00.out"})
	}
	return sys
}

// TestCompiledMatchesOracle walks random placements from the greedy
// solution of each instance through one compiled space (so the memo is
// shared across the walk) and requires the compiled evaluator to agree
// with the oracle on every step. Moves go to a random candidate, to any
// ECU or unknown name the space knows (breaking candidate and hardware
// rules), or unplace an app (partial placements).
func TestCompiledMatchesOracle(t *testing.T) {
	e11 := func(nCtl, nECU int) *model.System {
		return workload.Fleet(sim.NewRNG(uint64(nCtl*31)), nECU, nCtl, 0, 1, 0.6)
	}
	instances := []struct {
		name  string
		sys   *model.System
		steps int
	}{
		{"small", smallSystem(), 400},
		{"E11/5apps", e11(4, 3), 600},
		{"E11/7apps", e11(6, 3), 600},
		{"E11/9apps", e11(8, 4), 800},
		{"E11/38apps", workload.Fleet(sim.NewRNG(97), 6, 30, 4, 4, 2.0), 800},
		{"E20", workload.Fleet(sim.NewRNG(53), 4, 8, 0, 1, 1.0), 800},
		{"A5", workload.Fleet(sim.NewRNG(77), 5, 16, 2, 2, 1.2), 800},
		{"speed", speedSystem(), 400},
		{"wide", wideSystem(), 300},
	}
	// A candidate naming no ECU gives the space an unknown-ECU index.
	instances[5].sys.Apps[0].Candidates = []string{"cpm0", "cpm1", "nowhere"}
	for _, in := range instances {
		t.Run(in.name, func(t *testing.T) {
			rng := sim.NewRNG(7)
			sp := compile(in.sys)
			place := sp.start()
			if _, gPlace := greedy(sp, DefaultWeights()); gPlace != nil {
				copy(place, gPlace)
			}
			feasible := 0
			for step := 0; step < in.steps; step++ {
				a := rng.Intn(len(place))
				old := place[a]
				switch r := rng.Intn(10); {
				case r < 7:
					place[a] = sp.cands[a][rng.Intn(len(sp.cands[a]))]
				case r < 9:
					place[a] = int32(rng.Intn(len(sp.ecuNames)))
				default:
					place[a] = -1
				}
				ok := checkAgainstOracle(t, in.sys, sp, place)
				if ok {
					feasible++
				} else if rng.Intn(8) > 0 {
					place[a] = old // mostly stay near the feasible region
				}
			}
			if feasible < in.steps/10 {
				t.Errorf("only %d of %d steps feasible: the walk no longer probes costs", feasible, in.steps)
			}
		})
	}
	if sp := compile(wideSystem()); sp.words < 2 {
		t.Errorf("wide system compiled to %d bitset words, want ≥ 2", sp.words)
	}
}

// TestCompiledRuleClasses breaks each placement rule, and each
// placement-independent kind of error, once, and requires the oracle to
// report it and the compiled evaluator to agree.
func TestCompiledRuleClasses(t *testing.T) {
	ok := map[string]string{"Brake": "Big", "Steer": "Big", "Wiper": "Small", "Media": "Head"}
	cases := []struct {
		rule   string // "" means feasible, "sched" unschedulable
		mutate func(*model.System)
		place  map[string]string
	}{
		{"", func(*model.System) {}, nil},
		{"placement/outside-candidates", func(s *model.System) { s.App("Brake").Candidates = []string{"Small"} }, nil},
		{"placement/da-needs-rtos", func(*model.System) {}, map[string]string{"Brake": "Head"}},
		{"placement/needs-gpu", func(s *model.System) { s.App("Brake").NeedsGPU = true }, nil},
		{"placement/needs-crypto", func(s *model.System) { s.App("Brake").NeedsCrypto = true }, nil},
		{"timing/wcet-on-ecu", func(s *model.System) {
			s.ECU("Small").CPUMHz = 50
			s.App("Wiper").Deadline = 8 * sim.Millisecond
		}, nil},
		{"resources/memory", func(s *model.System) { s.ECU("Small").MemoryKB = 16 }, nil},
		{"resources/cpu", func(s *model.System) { s.App("Wiper").WCET = 40 * sim.Millisecond },
			map[string]string{"Brake": "Small", "Steer": "Small"}},
		{"placement/mixed-needs-mmu", func(s *model.System) { s.ECU("Big").HasMMU = false },
			map[string]string{"Wiper": "Big"}},
		{"comms/needs-network", func(s *model.System) { s.Interface("BrakeStatus").Network = "" }, nil},
		{"comms/unreachable", func(s *model.System) {
			s.Networks = append(s.Networks, &model.Network{Name: "CAN", Kind: model.NetCAN,
				BitsPerSecond: 500_000, Attached: []string{"Big", "Small"}})
			s.Interface("BrakeStatus").Network = "CAN"
		}, nil},
		{"placement/unknown-ecu", func(*model.System) {}, map[string]string{"Brake": "Nowhere"}},
		{"placement/unknown-app", func(*model.System) {}, map[string]string{"Ghost": "Big"}},
		{"timing/no-period", func(s *model.System) { s.App("Wiper").Period = 0 }, nil},
		{"safety/asil-dependency", func(s *model.System) {
			s.Interfaces = append(s.Interfaces, &model.Interface{Name: "MediaCtl", Owner: "Media",
				PayloadBytes: 8, Period: 100 * sim.Millisecond, Network: "BB"})
			s.Bindings = append(s.Bindings, model.Binding{Client: "Brake", Interface: "MediaCtl"})
		}, nil},
		{"sched", func(s *model.System) {
			s.App("Brake").Deadline = 2500 * sim.Microsecond
			s.App("Steer").Deadline = 2 * sim.Millisecond
		}, map[string]string{"Brake": "Small", "Steer": "Small"}},
	}
	for _, c := range cases {
		name := c.rule
		if name == "" {
			name = "feasible"
		}
		t.Run(name, func(t *testing.T) {
			sys := smallSystem()
			c.mutate(sys)
			for k, v := range ok {
				sys.Placement[k] = v
			}
			for k, v := range c.place {
				sys.Placement[k] = v
			}
			errs := map[string]bool{}
			for _, f := range model.Validate(sys).Errors() {
				errs[f.Rule] = true
			}
			want, wantOK := oracleEvaluate(sys, DefaultWeights())
			switch c.rule {
			case "":
				if !wantOK {
					t.Fatalf("base placement infeasible: %v", errs)
				}
			case "sched":
				if len(errs) > 0 || wantOK {
					t.Fatalf("want a valid but unschedulable placement, got errors %v, ok=%v", errs, wantOK)
				}
			default:
				if !errs[c.rule] || wantOK {
					t.Fatalf("want rule %s broken, got %v", c.rule, errs)
				}
			}
			if got, gotOK := Evaluate(sys, DefaultWeights()); got != want || gotOK != wantOK {
				t.Fatalf("Evaluate %+v (ok=%v), oracle %+v (ok=%v)", got, gotOK, want, wantOK)
			}
			sp := compile(sys)
			checkAgainstOracle(t, sys, sp, sp.start())
		})
	}
}

// TestScoreDoesNotAllocate guards the hot path: once the memo holds a
// placement's task sets, scoring it allocates nothing.
func TestScoreDoesNotAllocate(t *testing.T) {
	sp := compile(workload.Fleet(sim.NewRNG(53), 4, 8, 0, 1, 1.0))
	_, place := greedy(sp, DefaultWeights())
	if place == nil {
		t.Fatal("greedy found no placement")
	}
	w := DefaultWeights()
	if _, ok := sp.score(place, w); !ok {
		t.Fatal("greedy placement infeasible")
	}
	if n := testing.AllocsPerRun(100, func() { sp.score(place, w) }); n != 0 {
		t.Errorf("score allocates %v times per call, want 0", n)
	}
}

var benchCost Cost

// BenchmarkEvaluateCompiled scores E20's greedy placement on a warm
// compiled space: the per-candidate cost every search pays.
func BenchmarkEvaluateCompiled(b *testing.B) {
	sp := compile(workload.Fleet(sim.NewRNG(53), 4, 8, 0, 1, 1.0))
	_, place := greedy(sp, DefaultWeights())
	w := DefaultWeights()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCost, _ = sp.score(place, w)
	}
}
