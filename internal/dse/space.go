package dse

import (
	"encoding/binary"
	"math"
	"sort"

	"dynaplat/internal/model"
	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
)

// space is a system compiled for placement search. Apps and ECUs become
// indices into sys.Apps and sys.ECUs, and a placement becomes one ECU
// index per app, -1 meaning unplaced. Every placement rule is answered
// by a table built once from the model's own rule helpers, so scoring a
// candidate is one allocation-free pass over apps, ECUs and bindings.
//
// A space belongs to one search call: its scratch buffers and its
// schedulability memo are not safe for concurrent use. Names are assumed
// unique, as the DSL and every generator guarantee.
type space struct {
	apps []*model.App
	ecus []*model.ECU
	// ecuNames holds the name of every ECU index. Indices from len(ecus)
	// on are names that a candidate list or the input placement uses but
	// no ECU has; every app is inadmissible there.
	ecuNames []string
	// fixedOK is false when Validate reports an error that no placement
	// can clear (see model.Report.PlacementIndependentOK).
	fixedOK bool
	// fits[a*len(ecuNames)+e] holds a.PlacementFaults(e) == 0, and
	// util[a*len(ecuNames)+e] e.AppUtilization(a).
	fits []bool
	util []float64
	// cands lists each app's candidate ECUs in search order.
	cands [][]int32
	binds []binding
	// bit numbers the deterministic apps in sys.Apps order (-1 for the
	// others); words is the uint64 count of one ECU's task-set bitset.
	bit   []int32
	words int
	// base is the input system's placement, and extra its entries for
	// names that are not apps, carried into every materialized map.
	base  []int32
	extra map[string]string

	// Scratch state of score and the per-(ECU, task set) memo.
	loads []model.ECULoad
	sets  []uint64
	key   []byte
	memo  map[string]bool
}

// binding is a binding compiled to app indices, with the cross-ECU load
// it adds and, per (owner ECU, client ECU) pair, whether crossing it is
// legal (model.System.CrossingFaults == 0).
type binding struct {
	owner, client int32
	mbps          float64
	cross         []bool
}

var infeasible = Cost{Total: math.Inf(1)}

func compile(sys *model.System) *space {
	nA, nE := len(sys.Apps), len(sys.ECUs)
	sp := &space{
		apps: sys.Apps, ecus: sys.ECUs,
		fixedOK: model.Validate(sys).PlacementIndependentOK(),
		loads:   make([]model.ECULoad, nE),
		memo:    map[string]bool{},
	}
	ecuIdx := make(map[string]int32, nE)
	ecuOf := func(name string) int32 {
		e, ok := ecuIdx[name]
		if !ok {
			e = int32(len(sp.ecuNames))
			ecuIdx[name] = e
			sp.ecuNames = append(sp.ecuNames, name)
		}
		return e
	}
	for _, e := range sys.ECUs {
		ecuOf(e.Name)
	}
	appIdx := make(map[string]int32, nA)
	sp.cands = make([][]int32, nA)
	sp.bit = make([]int32, nA)
	nDA := int32(0)
	for a, app := range sys.Apps {
		appIdx[app.Name] = int32(a)
		if len(app.Candidates) > 0 {
			for _, name := range app.Candidates {
				sp.cands[a] = append(sp.cands[a], ecuOf(name))
			}
		} else {
			for e := range sys.ECUs {
				sp.cands[a] = append(sp.cands[a], int32(e))
			}
		}
		sp.bit[a] = -1
		if app.Kind == model.Deterministic {
			sp.bit[a] = nDA
			nDA++
		}
	}
	sp.base = make([]int32, nA)
	for a, app := range sys.Apps {
		sp.base[a] = -1
		if name, ok := sys.Placement[app.Name]; ok {
			sp.base[a] = ecuOf(name)
		}
	}
	for name, ecu := range sys.Placement {
		if _, ok := appIdx[name]; !ok {
			if sp.extra == nil {
				sp.extra = map[string]string{}
			}
			sp.extra[name] = ecu
		}
	}

	nS := len(sp.ecuNames)
	sp.fits = make([]bool, nA*nS)
	sp.util = make([]float64, nA*nS)
	for a, app := range sys.Apps {
		for e, ecu := range sys.ECUs {
			sp.fits[a*nS+e] = app.PlacementFaults(ecu) == 0
			sp.util[a*nS+e] = ecu.AppUtilization(app)
		}
	}
	sp.words = int(nDA+63) / 64
	sp.sets = make([]uint64, nE*sp.words)
	sp.key = make([]byte, 0, 4+8*sp.words)

	// Bindings whose interface, client or owner is unknown break a
	// placement-independent rule, so they are never scored.
	crossByNet := map[string][]bool{}
	for _, b := range sys.Bindings {
		ifc := sys.Interface(b.Interface)
		if ifc == nil {
			continue
		}
		owner, oOK := appIdx[ifc.Owner]
		client, cOK := appIdx[b.Client]
		if !oOK || !cOK {
			continue
		}
		cross, ok := crossByNet[ifc.Network]
		if !ok {
			cross = make([]bool, nE*nE)
			for o, oe := range sys.ECUs {
				for c, ce := range sys.ECUs {
					cross[o*nE+c] = sys.CrossingFaults(ifc, oe.Name, ce.Name) == 0
				}
			}
			crossByNet[ifc.Network] = cross
		}
		sp.binds = append(sp.binds, binding{owner: owner, client: client,
			mbps: ifc.NominalBitsPerSecond() / 1e6, cross: cross})
	}
	return sp
}

// start returns a fresh copy of the input placement.
func (sp *space) start() []int32 { return append([]int32(nil), sp.base...) }

// byName returns the app indices sorted by app name, the order the
// enumerating searches assign apps in.
func (sp *space) byName() []int32 {
	order := make([]int32, len(sp.apps))
	for a := range order {
		order[a] = int32(a)
	}
	sort.Slice(order, func(i, j int) bool { return sp.apps[order[i]].Name < sp.apps[order[j]].Name })
	return order
}

// placement materializes place as an app-name → ECU-name map.
func (sp *space) placement(place []int32) map[string]string {
	out := make(map[string]string, len(place)+len(sp.extra))
	for name, ecu := range sp.extra {
		out[name] = ecu
	}
	for a, e := range place {
		if e >= 0 {
			out[sp.apps[a].Name] = sp.ecuNames[e]
		}
	}
	return out
}

// score evaluates one placement: ok is false when Validate would report
// an error for it or an ECU's deterministic task set is unschedulable.
// Per-ECU sums run in sys.Apps order and the cross-ECU load in binding
// order, so the Cost is bit-identical to summing over the model.
func (sp *space) score(place []int32, w Weights) (Cost, bool) {
	if !sp.fixedOK {
		return infeasible, false
	}
	nS, nE := len(sp.ecuNames), len(sp.ecus)
	clear(sp.loads)
	clear(sp.sets)
	for a, e := range place {
		if e < 0 {
			continue
		}
		if !sp.fits[a*nS+int(e)] {
			return infeasible, false
		}
		sp.loads[e].Add(sp.apps[a], sp.util[a*nS+int(e)])
		if b := sp.bit[a]; b >= 0 {
			sp.sets[int(e)*sp.words+int(b/64)] |= 1 << (b % 64)
		}
	}
	var c Cost
	for i := range sp.binds {
		b := &sp.binds[i]
		o, cl := place[b.owner], place[b.client]
		if o < 0 || cl < 0 || o == cl {
			continue
		}
		if !b.cross[int(o)*nE+int(cl)] {
			return infeasible, false
		}
		c.CrossMbps += b.mbps
	}
	for e, ecu := range sp.ecus {
		l := &sp.loads[e]
		if ecu.LoadFaults(l) != 0 {
			return infeasible, false
		}
		if l.Apps == 0 {
			continue
		}
		c.UsedECUs++
		c.ECUCost += ecu.Cost
		if l.Util > c.MaxUtil {
			c.MaxUtil = l.Util
		}
		if !sp.schedulable(e) {
			return infeasible, false
		}
	}
	c.Total = w.ECUCost*float64(c.ECUCost) + w.MaxUtil*c.MaxUtil + w.CrossComm*c.CrossMbps
	return c, true
}

// schedulable reports whether the deterministic apps the last score
// placed on ECU e pass response-time analysis or, since RTA under
// deadline-monotonic priorities is sufficient only, exact EDF synthesis.
// Both verdicts depend only on the ECU and the app set, so they are
// memoized under that key.
func (sp *space) schedulable(e int) bool {
	set := sp.sets[e*sp.words : (e+1)*sp.words]
	empty := true
	for _, w := range set {
		empty = empty && w == 0
	}
	if empty {
		return true
	}
	key := binary.LittleEndian.AppendUint32(sp.key[:0], uint32(e))
	for _, w := range set {
		key = binary.LittleEndian.AppendUint64(key, w)
	}
	sp.key = key
	if ok, hit := sp.memo[string(key)]; hit {
		return ok
	}
	var apps []*model.App
	for a, b := range sp.bit {
		if b >= 0 && set[b/64]&(1<<(b%64)) != 0 {
			apps = append(apps, sp.apps[a])
		}
	}
	tasks := sp.ecus[e].Tasks(apps)
	ok := true
	if _, rtaOK, err := sched.ResponseTimeAnalysis(tasks); err != nil || !rtaOK {
		_, err := sched.Synthesize(tasks, sim.Millisecond)
		ok = err == nil
	}
	sp.memo[string(key)] = ok
	return ok
}
