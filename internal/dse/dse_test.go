package dse

import (
	"errors"
	"math"
	"testing"

	"dynaplat/internal/model"
)

// smallSystem: two RTOS ECUs (one cheap, one big) plus a POSIX head unit;
// three DAs and one NDA with a backbone attaching everything.
func smallSystem() *model.System {
	return model.MustParse(`
system Small
ecu Big cpu=400MHz mem=4MB mmu os=rtos cost=40
ecu Small cpu=100MHz mem=512KB mmu os=rtos cost=10
ecu Head cpu=1000MHz mem=64MB mmu os=posix cost=25
network BB type=ethernet rate=1Gbps attach=Big,Small,Head
app Brake kind=da asil=D period=10ms wcet=2ms mem=64KB
app Steer kind=da asil=D period=5ms wcet=1ms mem=64KB
app Wiper kind=da asil=B period=50ms wcet=5ms mem=32KB
app Media kind=nda asil=QM mem=2MB candidates=Head
iface BrakeStatus owner=Brake paradigm=event payload=8B period=10ms net=BB
bind Media -> BrakeStatus
`)
}

func place(sys *model.System, p map[string]string) *model.System {
	c := sys.Clone()
	for k, v := range p {
		c.Placement[k] = v
	}
	return c
}

func TestEvaluateFeasible(t *testing.T) {
	sys := place(smallSystem(), map[string]string{
		"Brake": "Big", "Steer": "Big", "Wiper": "Small", "Media": "Head",
	})
	c, ok := Evaluate(sys, DefaultWeights())
	if !ok {
		t.Fatal("feasible placement judged infeasible")
	}
	if c.UsedECUs != 3 || c.ECUCost != 75 {
		t.Errorf("cost = %+v", c)
	}
	if c.CrossMbps <= 0 {
		t.Errorf("cross-ECU comm not counted: %+v", c)
	}
	if math.IsInf(c.Total, 1) {
		t.Error("total infinite")
	}
}

func TestEvaluateInfeasible(t *testing.T) {
	// DA on POSIX head unit.
	sys := place(smallSystem(), map[string]string{
		"Brake": "Head", "Steer": "Big", "Wiper": "Small", "Media": "Head",
	})
	if _, ok := Evaluate(sys, DefaultWeights()); ok {
		t.Error("DA-on-POSIX accepted")
	}
	// CPU overload on the slow ECU: Wiper(5ms/50ms) is fine, but Brake
	// (2ms @100MHz ref → 2ms, period 10ms) + Steer (1ms/5ms) + a memory
	// squeeze: put everything on Small (512KB, 100MHz).
	sys2 := place(smallSystem(), map[string]string{
		"Brake": "Small", "Steer": "Small", "Wiper": "Small", "Media": "Head",
	})
	sys2.App("Steer").WCET = sys2.App("Steer").Period // U=1 alone
	if _, ok := Evaluate(sys2, DefaultWeights()); ok {
		t.Error("overloaded ECU accepted")
	}
}

func TestExhaustiveFindsOptimum(t *testing.T) {
	sys := smallSystem()
	res, err := Exhaustive(sys, DefaultWeights(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("no feasible placement found")
	}
	// Consolidation: the optimum packs all DAs onto one RTOS ECU
	// (cheapest feasible subset) — cost 10 is impossible (Small lacks
	// memory? 64+64+32=160KB fits 512KB; utilization 0.2+0.2+0.1=0.5 OK)
	// so DAs on Small + Media on Head = 10+25 = 35.
	if res.Cost.ECUCost != 35 {
		t.Errorf("optimal ECU cost = %d (placement %v), want 35",
			res.Cost.ECUCost, res.Placement)
	}
	if res.Placement["Media"] != "Head" {
		t.Errorf("Media must respect its candidate set: %v", res.Placement)
	}
	if res.Evaluated == 0 {
		t.Error("no evaluations counted")
	}
}

func TestExhaustiveBudget(t *testing.T) {
	res, err := Exhaustive(smallSystem(), DefaultWeights(), 2)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
	if res.Evaluated != 2 {
		t.Errorf("Evaluated = %d, want the budget of 2", res.Evaluated)
	}
}

func TestGreedyFeasibleAndNearOptimal(t *testing.T) {
	sys := smallSystem()
	g := Greedy(sys, DefaultWeights())
	if !g.Feasible {
		t.Fatal("greedy found nothing")
	}
	opt, _ := Exhaustive(sys, DefaultWeights(), 0)
	if g.Cost.Total < opt.Cost.Total {
		t.Errorf("greedy %v beat exhaustive %v — exhaustive broken", g.Cost.Total, opt.Cost.Total)
	}
	// Greedy must respect candidates.
	if g.Placement["Media"] != "Head" {
		t.Errorf("greedy placement %v", g.Placement)
	}
}

func TestGreedyReportsInfeasible(t *testing.T) {
	sys := smallSystem()
	// Constrain a DA to the POSIX ECU only → nothing feasible.
	sys.App("Brake").Candidates = []string{"Head"}
	g := Greedy(sys, DefaultWeights())
	if g.Feasible {
		t.Error("greedy claimed feasibility")
	}
}

func TestAnnealAtLeastGreedy(t *testing.T) {
	sys := smallSystem()
	g := Greedy(sys, DefaultWeights())
	a := Anneal(sys, DefaultWeights(), DefaultAnnealConfig())
	if !a.Feasible {
		t.Fatal("anneal found nothing")
	}
	if a.Cost.Total > g.Cost.Total+1e-9 {
		t.Errorf("anneal %v worse than its greedy start %v", a.Cost.Total, g.Cost.Total)
	}
	opt, _ := Exhaustive(sys, DefaultWeights(), 0)
	if a.Cost.Total < opt.Cost.Total-1e-9 {
		t.Errorf("anneal %v beat exhaustive %v", a.Cost.Total, opt.Cost.Total)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	sys := smallSystem()
	cfg := DefaultAnnealConfig()
	a := Anneal(sys, DefaultWeights(), cfg)
	b := Anneal(sys, DefaultWeights(), cfg)
	if a.Cost.Total != b.Cost.Total {
		t.Errorf("same seed, different results: %v vs %v", a.Cost.Total, b.Cost.Total)
	}
	for k, v := range a.Placement {
		if b.Placement[k] != v {
			t.Errorf("placements differ at %s", k)
		}
	}
}

func TestVerifyAllVariants(t *testing.T) {
	sys := smallSystem()
	rep := VerifyAllVariants(sys, DefaultWeights(), 0)
	// Brake/Steer/Wiper over 3 ECUs each, Media fixed: 27 variants.
	if rep.Total != 27 {
		t.Errorf("total = %d, want 27", rep.Total)
	}
	if rep.Feasible == 0 || rep.Infeasible == 0 {
		t.Errorf("feasible=%d infeasible=%d; expected a mix", rep.Feasible, rep.Infeasible)
	}
	if rep.Feasible+rep.Infeasible != rep.Total {
		t.Error("counts do not add up")
	}
	if rep.Truncated {
		t.Error("unexpected truncation")
	}
	small := VerifyAllVariants(sys, DefaultWeights(), 5)
	if !small.Truncated || small.Total != 5 {
		t.Errorf("limit: %+v", small)
	}
}

func TestConsolidationScenario(t *testing.T) {
	// E15's shape: a federated design (1 function per dedicated ECU) must
	// cost more than the consolidated optimum on the same function set.
	sys := smallSystem()
	federated := place(sys, map[string]string{
		"Brake": "Big", "Steer": "Small", "Wiper": "Small", "Media": "Head",
	})
	fc, ok := Evaluate(federated, DefaultWeights())
	if !ok {
		t.Fatal("federated infeasible")
	}
	opt, _ := Exhaustive(sys, DefaultWeights(), 0)
	if opt.Cost.ECUCost >= fc.ECUCost {
		t.Errorf("consolidated %d !< federated %d", opt.Cost.ECUCost, fc.ECUCost)
	}
}
