package experiments

import (
	"fmt"

	"dynaplat/internal/dse"
	"dynaplat/internal/model"
	"dynaplat/internal/obs"
	"dynaplat/internal/platform"
	"dynaplat/internal/security/analysis"
	"dynaplat/internal/sim"
	"dynaplat/internal/workload"
	"dynaplat/internal/xil"
)

func init() {
	register("E11", runE11)
	register("E12", runE12)
	register("E13", runE13)
	register("E14", runE14)
	register("E15", runE15)
}

// E11 — Section 2.3: design-space exploration scales where exhaustive
// search cannot, at bounded optimality loss.
func runE11(_ *obs.Env) *Table {
	t := &Table{
		ID: "E11", Title: "Design-space exploration: exhaustive vs heuristics",
		Source:  "§2.3, [9,14]",
		Columns: []string{"apps", "ecus", "space", "method", "feasible", "total-cost", "evaluations"},
		Expectation: "heuristics stay within ~10% of the exhaustive optimum " +
			"where it is computable, with orders of magnitude fewer evaluations",
	}
	t.Holds = true
	w := dse.DefaultWeights()
	for _, cse := range []struct{ nCtl, nECU int }{{4, 3}, {6, 3}, {8, 4}} {
		rng := sim.NewRNG(uint64(cse.nCtl * 31))
		sys := workload.Fleet(rng, cse.nECU, cse.nCtl, 0, 1, 0.6)
		space := 1.0
		for _, a := range sys.Apps {
			if len(a.Candidates) > 0 {
				space *= float64(len(a.Candidates))
			} else {
				space *= float64(len(sys.ECUs))
			}
		}
		ex, err := dse.Exhaustive(sys, w, 5_000_000)
		exCost := "-"
		if err == nil && ex.Feasible {
			exCost = f2(ex.Cost.Total)
			t.AddRow(itoa(int64(cse.nCtl+1)), itoa(int64(cse.nECU+1)),
				fmt.Sprintf("%.0f", space), "exhaustive", boolStr(ex.Feasible),
				exCost, itoa(ex.Evaluated))
		}
		g := dse.Greedy(sys, w)
		t.AddRow(itoa(int64(cse.nCtl+1)), itoa(int64(cse.nECU+1)),
			fmt.Sprintf("%.0f", space), "greedy", boolStr(g.Feasible),
			f2(g.Cost.Total), itoa(g.Evaluated))
		sa := dse.Anneal(sys, w, dse.DefaultAnnealConfig())
		t.AddRow(itoa(int64(cse.nCtl+1)), itoa(int64(cse.nECU+1)),
			fmt.Sprintf("%.0f", space), "anneal", boolStr(sa.Feasible),
			f2(sa.Cost.Total), itoa(sa.Evaluated))
		if !g.Feasible || !sa.Feasible {
			t.Holds = false
			continue
		}
		if err == nil && ex.Feasible {
			if sa.Cost.Total > ex.Cost.Total*1.10+1e-9 {
				t.Holds = false
			}
			if ex.Evaluated <= sa.Evaluated && space > 1000 {
				t.Holds = false
			}
		}
	}
	// One heuristic-only size far beyond exhaustive reach.
	rng := sim.NewRNG(97)
	big := workload.Fleet(rng, 6, 30, 4, 4, 2.0)
	g := dse.Greedy(big, w)
	sa := dse.Anneal(big, w, dse.DefaultAnnealConfig())
	t.AddRow("38", "7", "~1e28", "greedy", boolStr(g.Feasible), f2(g.Cost.Total), itoa(g.Evaluated))
	t.AddRow("38", "7", "~1e28", "anneal", boolStr(sa.Feasible), f2(sa.Cost.Total), itoa(sa.Evaluated))
	if !g.Feasible || !sa.Feasible || sa.Cost.Total > g.Cost.Total+1e-9 {
		t.Holds = false
	}
	return t
}

// E12 — Section 5.4 [11]: probabilistic security evaluation ranks
// architecture variants.
func runE12(_ *obs.Env) *Table {
	t := &Table{
		ID: "E12", Title: "Probabilistic security evaluation of architectures",
		Source:  "§5.4, [11]",
		Columns: []string{"architecture", "P(brake)", "P(gateway)", "most-exposed"},
		Expectation: "flat bus ≫ gateway-separated ≫ hardened gateway for " +
			"the brake asset",
	}
	build := func(kind string) *analysis.Graph {
		g := analysis.NewGraph()
		g.AddNode("telematics", true)
		g.AddNode("obd", true)
		g.AddNode("gateway", false)
		g.AddNode("infotainment", false)
		g.AddNode("brake", false)
		switch kind {
		case "flat":
			// Everything on one bus: compromise of any entry reaches all.
			g.AddEdge("telematics", "infotainment", 0.4)
			g.AddEdge("telematics", "brake", 0.25)
			g.AddEdge("obd", "brake", 0.3)
			g.AddEdge("infotainment", "brake", 0.35)
		case "gateway":
			g.AddEdge("telematics", "infotainment", 0.4)
			g.AddEdge("infotainment", "gateway", 0.2)
			g.AddEdge("obd", "gateway", 0.2)
			g.AddEdge("gateway", "brake", 0.3)
		case "hardened":
			// Gateway with authenticated channels [10]: exploit odds drop.
			g.AddEdge("telematics", "infotainment", 0.4)
			g.AddEdge("infotainment", "gateway", 0.05)
			g.AddEdge("obd", "gateway", 0.05)
			g.AddEdge("gateway", "brake", 0.05)
		}
		return g
	}
	var pFlat, pGw, pHard float64
	for _, kind := range []string{"flat", "gateway", "hardened"} {
		r := build(kind).Exploitability()
		rank := r.Rank()
		top := ""
		for _, row := range rank {
			if row.Asset != "telematics" && row.Asset != "obd" {
				top = row.Asset
				break
			}
		}
		t.AddRow(kind, fmt.Sprintf("%.4f", r.Of("brake")),
			fmt.Sprintf("%.4f", r.Of("gateway")), top)
		switch kind {
		case "flat":
			pFlat = r.Of("brake")
		case "gateway":
			pGw = r.Of("brake")
		case "hardened":
			pHard = r.Of("brake")
		}
	}
	t.Holds = pFlat > pGw && pGw > pHard && pHard < 0.01
	return t
}

// E13 — Section 2.4: XiL levels — identical fault coverage, very
// different cost.
func runE13(_ *obs.Env) *Table {
	t := &Table{
		ID: "E13", Title: "XiL test levels: fault coverage and simulation cost",
		Source:  "§2.4, [17]",
		Columns: []string{"level", "settled", "settling", "stuck-sensor-found", "events", "vs-MiL"},
		Expectation: "every level finds the fault; event cost grows " +
			"MiL < SiL < HiL (earlier levels test faster)",
	}
	t.Holds = true
	var milEvents uint64
	var costs []uint64
	for _, level := range []xil.Level{xil.MiL, xil.SiL, xil.HiL} {
		nominal, err := xil.Run(level, xil.NewVehicle(), xil.NewCruisePID(),
			xil.CruiseStep(), xil.DefaultConfig())
		if err != nil {
			panic(err)
		}
		sc := xil.CruiseStep()
		sc.Fault = xil.FaultSensorStuck
		sc.FaultAt = sim.Time(5 * sim.Second)
		faulty, err := xil.Run(level, xil.NewVehicle(), xil.NewCruisePID(), sc,
			xil.DefaultConfig())
		if err != nil {
			panic(err)
		}
		if level == xil.MiL {
			milEvents = nominal.Events
		}
		ratio := float64(nominal.Events) / float64(milEvents)
		t.AddRow(level.String(), boolStr(nominal.Settled), nominal.SettlingTime.String(),
			boolStr(faulty.FaultDetected), itoa(int64(nominal.Events)),
			fmt.Sprintf("%.1fx", ratio))
		costs = append(costs, nominal.Events)
		if !nominal.Settled || !faulty.FaultDetected {
			t.Holds = false
		}
	}
	if !(costs[0] < costs[1] && costs[1] < costs[2]) {
		t.Holds = false
	}
	return t
}

// E14 — Section 3.1 "Memory": process separation confines stray writes;
// colocation trades protection for process count.
func runE14(_ *obs.Env) *Table {
	t := &Table{
		ID: "E14", Title: "Memory freedom of interference",
		Source:  "§3.1 Memory",
		Columns: []string{"configuration", "processes", "apps-corrupted-by-wild-write"},
		Expectation: "MMU separation: 1 (the faulty app itself); colocation " +
			"widens the blast radius; no MMU: all apps",
	}
	const nApps = 6
	build := func(mmu bool, colocate int) (*platform.MemoryManager, []string) {
		m := platform.NewMemoryManager(1<<20, mmu)
		names := make([]string, nApps)
		for i := 0; i < nApps; i++ {
			names[i] = fmt.Sprintf("app%d", i)
			m.NewDomain(names[i], 64)
		}
		for i := 1; i <= colocate && i < nApps; i++ {
			m.Colocate(names[0], names[i])
		}
		return m, names
	}
	m1, n1 := build(true, 0)
	hit1 := m1.InjectWildWrite(n1[0])
	t.AddRow("mmu, separate processes", itoa(int64(m1.ProcessCount())), itoa(int64(len(hit1))))

	m2, n2 := build(true, 2)
	hit2 := m2.InjectWildWrite(n2[0])
	t.AddRow("mmu, 3 apps colocated", itoa(int64(m2.ProcessCount())), itoa(int64(len(hit2))))

	m3, n3 := build(false, 0)
	hit3 := m3.InjectWildWrite(n3[0])
	t.AddRow("no mmu", itoa(int64(m3.ProcessCount())), itoa(int64(len(hit3))))

	t.Holds = len(hit1) == 1 && len(hit2) == 3 && len(hit3) == nApps
	return t
}

// E15 — Figure 1 vs Figure 2: ECU consolidation hosts the same function
// set on fewer, cheaper ECUs at equal schedulability.
func runE15(_ *obs.Env) *Table {
	t := &Table{
		ID: "E15", Title: "ECU consolidation: federated vs dynamic platform",
		Source:  "Fig. 1 vs Fig. 2, §1",
		Columns: []string{"design", "ecus-used", "ecu-cost", "max-util", "schedulable"},
		Expectation: "consolidated deployment uses fewer ECUs at lower cost " +
			"with every deadline still met",
	}
	rng := sim.NewRNG(23)
	nCtl := 10
	sys := workload.Fleet(rng, nCtl, nCtl, 0, 1, 1.2)
	w := dse.DefaultWeights()

	// Federated: one control app per dedicated CPM (Figure 1's world).
	fed := sys.Clone()
	i := 0
	for _, a := range fed.Apps {
		if a.Kind == model.Deterministic {
			fed.Placement[a.Name] = fmt.Sprintf("cpm%d", i)
			i++
		} else {
			fed.Placement[a.Name] = "head"
		}
	}
	fc, fOK := dse.Evaluate(fed, w)
	t.AddRow("federated (1 fn/ECU)", itoa(int64(fc.UsedECUs)), itoa(int64(fc.ECUCost)),
		f2(fc.MaxUtil), boolStr(fOK))

	// Consolidated: let DSE pack.
	con := dse.Anneal(sys, w, dse.DefaultAnnealConfig())
	t.AddRow("consolidated (DSE)", itoa(int64(con.Cost.UsedECUs)),
		itoa(int64(con.Cost.ECUCost)), f2(con.Cost.MaxUtil), boolStr(con.Feasible))

	t.Holds = fOK && con.Feasible &&
		con.Cost.UsedECUs < fc.UsedECUs && con.Cost.ECUCost < fc.ECUCost
	return t
}
