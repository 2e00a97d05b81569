package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"strings"
	"time"

	"dynaplat/internal/dse"
	"dynaplat/internal/experiments"
	"dynaplat/internal/fleet"
	"dynaplat/internal/fuzz"
	"dynaplat/internal/model"
	"dynaplat/internal/par"
	"dynaplat/internal/sim"
	gen "dynaplat/internal/workload"
)

// A workload is one named input set. setup builds the inputs from the
// seed and returns the pass that runs them once through the public layer
// APIs, checking every output it gets back.
type workload struct {
	name string
	// workers is how many goroutines one pass keeps busy.
	workers int
	// minPasses is the fewest timed passes a run makes, whatever its
	// length.
	minPasses int
	setup     func(seed uint64) func(*pass)
	// probe, when set, adds the workload's own per-layer metrics to a
	// traced run; passes are the run's untraced timed passes.
	probe func(seed uint64, passes []timedPass, m metrics) error
}

func workloads() []workload {
	return []workload{
		{name: "dse-exact", workers: 1, minPasses: 3, setup: setupDSEExact},
		{name: "dse-sample", workers: 1, minPasses: 3, setup: setupDSESample},
		{name: "sim-suite", workers: 1, minPasses: 3, setup: setupSimSuite, probe: probeSimSuite},
		{name: "fleet", workers: fleetWorkers, minPasses: 3, setup: setupFleet, probe: probeFleet},
		// Four passes of 300 seeds put ≥ 10 latency samples beyond p99.
		{name: "fuzz", workers: fuzzWorkers, minPasses: 4, setup: setupFuzz, probe: probeFuzz},
	}
}

// pass records one pass of a workload: the ops it attempted, a digest of
// everything they produced, and the wall time of each group of calls.
type pass struct {
	ops, failed int
	problems    []string
	h           hash.Hash
	// golden holds the pinned output lines checked against
	// testdata/golden.txt when the seed is 1.
	golden []string
	// calls is wall seconds per call group, counts exact work counters;
	// both are keyed by per-layer metric name.
	calls  map[string]float64
	counts map[string]float64
	// opSecs is the latency of each op, busy their sum.
	opSecs []float64
	busy   float64
}

func newPass() *pass {
	return &pass{h: sha256.New(), calls: map[string]float64{}, counts: map[string]float64{}}
}

// op runs one operation and counts it; a returned error or a panic marks
// it failed.
func (p *pass) op(name string, fn func() error) {
	p.ops++
	err := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("panic: %v", v)
			}
		}()
		return fn()
	}()
	if err != nil {
		p.fail(name + ": " + err.Error())
	}
}

func (p *pass) fail(problem string) {
	p.failed++
	p.problems = append(p.problems, problem)
}

// timed runs one op's call fn, recording its latency and charging its
// wall time to call group name unless that is empty.
func (p *pass) timed(name string, fn func()) {
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	if name != "" {
		p.calls[name] += d
	}
	p.opSecs = append(p.opSecs, d)
	p.busy += d
}

// record adds a line to the pass digest.
func (p *pass) record(line string) { _, _ = io.WriteString(p.h, line+"\n") }

// pin records a line and pins it for the seed-1 golden check.
func (p *pass) pin(line string) {
	p.record(line)
	p.golden = append(p.golden, line)
}

func (p *pass) digest() string { return hex.EncodeToString(p.h.Sum(nil)) }

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// ---- dse-exact and dse-sample ---------------------------------------

// instance is one system the exploration workloads search.
type instance struct {
	label string
	sys   *model.System
}

// newInstance returns the experiment's instance for a workload seed. The
// exploration workloads always search the paper experiments' own
// instances: the seed reorders each instance's ECUs and apps, which
// changes the order every search visits placements in, and drives the
// searches' random streams. It does not draw new instances, because
// between random instances of one size the cost of a search varies up to
// tenfold (with how often Evaluate falls back to EDF synthesis), which
// would swamp any change to the code being measured. Seed 1 keeps the
// experiment's own order.
func newInstance(label string, sys *model.System, seed uint64) instance {
	if seed != 1 {
		rng := sim.NewRNG(seed)
		sim.Shuffle(rng, sys.ECUs)
		sim.Shuffle(rng, sys.Apps)
	}
	return instance{label, sys}
}

// e11Instances are E11's three exhaustive instances: 4, 6 and 8 control
// apps on 3, 3 and 4 ECUs, plus the head unit and its infotainment app.
func e11Instances(seed uint64) []instance {
	var out []instance
	for _, c := range []struct{ nCtl, nECU int }{{4, 3}, {6, 3}, {8, 4}} {
		sys := gen.Fleet(sim.NewRNG(uint64(c.nCtl*31)), c.nECU, c.nCtl, 0, 1, 0.6)
		out = append(out, newInstance(fmt.Sprintf("E11/%dapps-%decus", c.nCtl+1, c.nECU+1), sys, seed))
	}
	return out
}

// e11Big is E11's 38-app, 7-ECU instance, beyond exhaustive reach.
func e11Big(seed uint64) instance {
	return newInstance("E11/38apps-7ecus", gen.Fleet(sim.NewRNG(97), 6, 30, 4, 4, 2.0), seed)
}

// e20Instance is E20's 9-app, 5-ECU Pareto instance.
func e20Instance(seed uint64) instance {
	return newInstance("E20/9apps-5ecus", gen.Fleet(sim.NewRNG(53), 4, 8, 0, 1, 1.0), seed)
}

func setupDSEExact(seed uint64) func(*pass) {
	insts := e11Instances(seed)
	w := dse.DefaultWeights()
	return func(p *pass) {
		for _, in := range insts {
			p.op(in.label+" exhaustive", func() error {
				var r dse.Result
				var err error
				p.timed("dse.exhaustive_s", func() { r, err = dse.Exhaustive(in.sys, w, 5_000_000) })
				if err != nil {
					return err
				}
				p.counts["dse.evaluations"] += float64(r.Evaluated)
				if err := checkResult(in.sys, r, w); err != nil {
					return err
				}
				p.pin(fmt.Sprintf("dse-exact %s exhaustive cost=%.4f evaluated=%d placement=%s",
					in.label, r.Cost.Total, r.Evaluated, placementString(in.sys, r.Placement)))
				return nil
			})
		}
	}
}

func setupDSESample(seed uint64) func(*pass) {
	e20, big := e20Instance(seed), e11Big(seed)
	w := dse.DefaultWeights()
	cfg := dse.DefaultAnnealConfig()
	cfg.Seed = seed
	return func(p *pass) {
		p.op(e20.label+" pareto", func() error {
			var front []dse.ParetoPoint
			p.timed("dse.pareto_s", func() { front = dse.ParetoFront(e20.sys, 0, seed) })
			if err := checkFront(e20.sys, front, w); err != nil {
				return err
			}
			pts := make([]string, len(front))
			for i, pt := range front {
				pts[i] = fmt.Sprintf("%d/%.4f/%.4f", pt.Cost.ECUCost, pt.Cost.MaxUtil, pt.Cost.CrossMbps)
			}
			p.pin(fmt.Sprintf("dse-sample %s pareto front=%s", e20.label, strings.Join(pts, ",")))
			return nil
		})
		var greedy dse.Result
		p.op(big.label+" greedy", func() error {
			p.timed("dse.greedy_s", func() { greedy = dse.Greedy(big.sys, w) })
			p.counts["dse.evaluations"] += float64(greedy.Evaluated)
			if err := checkResult(big.sys, greedy, w); err != nil {
				return err
			}
			p.pin(fmt.Sprintf("dse-sample %s greedy cost=%.4f", big.label, greedy.Cost.Total))
			return nil
		})
		p.op(big.label+" anneal", func() error {
			var r dse.Result
			p.timed("dse.anneal_s", func() { r = dse.Anneal(big.sys, w, cfg) })
			p.counts["dse.evaluations"] += float64(r.Evaluated)
			if err := checkResult(big.sys, r, w); err != nil {
				return err
			}
			if r.Cost.Total > greedy.Cost.Total {
				return fmt.Errorf("anneal cost %.4f above greedy %.4f", r.Cost.Total, greedy.Cost.Total)
			}
			p.pin(fmt.Sprintf("dse-sample %s anneal cost=%.4f", big.label, r.Cost.Total))
			p.record("placement " + placementString(big.sys, r.Placement))
			return nil
		})
	}
}

// checkResult requires a feasible result whose placement re-evaluates to
// the cost the search reported.
func checkResult(sys *model.System, r dse.Result, w dse.Weights) error {
	if !r.Feasible {
		return fmt.Errorf("no feasible placement found")
	}
	return checkCost(sys, r.Placement, r.Cost, w)
}

func checkCost(sys *model.System, placement map[string]string, want dse.Cost, w dse.Weights) error {
	probe := sys.Clone()
	probe.Placement = placement
	got, ok := dse.Evaluate(probe, w)
	if !ok || got != want {
		return fmt.Errorf("placement re-evaluates to %+v (feasible=%v), search reported %+v", got, ok, want)
	}
	return nil
}

// checkFront requires a non-empty, mutually non-dominated front whose
// points re-evaluate to their reported costs.
func checkFront(sys *model.System, front []dse.ParetoPoint, w dse.Weights) error {
	if len(front) == 0 {
		return fmt.Errorf("empty Pareto front")
	}
	for i, a := range front {
		if err := checkCost(sys, a.Placement, a.Cost, w); err != nil {
			return fmt.Errorf("point %d: %v", i, err)
		}
		for j, b := range front {
			if i != j && dominates(a.Cost, b.Cost) {
				return fmt.Errorf("point %d dominates point %d", i, j)
			}
		}
	}
	return nil
}

func dominates(a, b dse.Cost) bool {
	if a.ECUCost > b.ECUCost || a.MaxUtil > b.MaxUtil || a.CrossMbps > b.CrossMbps {
		return false
	}
	return a.ECUCost < b.ECUCost || a.MaxUtil < b.MaxUtil || a.CrossMbps < b.CrossMbps
}

// placementString renders a placement in the system's app order.
func placementString(sys *model.System, placement map[string]string) string {
	parts := make([]string, len(sys.Apps))
	for i, a := range sys.Apps {
		parts[i] = a.Name + ":" + placement[a.Name]
	}
	return strings.Join(parts, ",")
}

// ---- sim-suite -------------------------------------------------------

// suiteSkipped are the experiments the sim-suite leaves out: E11 and
// E20 are pure design-space exploration (the dse-* workloads) and E23
// is a fleet campaign (the fleet workload).
var suiteSkipped = map[string]bool{"E11": true, "E20": true, "E23": true}

// expTimed are the experiments whose wall time gets its own per-layer
// metric; the others are summed into exp.rest_s.
var expTimed = map[string]bool{
	"E1": true, "E3": true, "E4": true, "E13": true, "E15": true,
	"E21": true, "E22": true, "E24": true,
}

func suiteIDs() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if !suiteSkipped[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

func setupSimSuite(uint64) func(*pass) {
	ids := suiteIDs()
	return func(p *pass) {
		for _, id := range ids {
			p.op(id, func() error {
				metric := "exp.rest_s"
				if expTimed[id] {
					metric = "exp." + id + "_s"
				}
				var t *experiments.Table
				var err error
				p.timed(metric, func() { t, err = experiments.Run(id) })
				if err != nil {
					return err
				}
				var sb strings.Builder
				t.Render(&sb)
				p.pin(fmt.Sprintf("sim-suite %s table=%s", id, sha(sb.String())))
				if !t.Holds {
					return fmt.Errorf("expectation violated: %s", t.Expectation)
				}
				return nil
			})
		}
	}
}

// ---- fleet -----------------------------------------------------------

const (
	fleetVehicles = 3000
	fleetWorkers  = 2
)

// fleetConfig is the campaign of the fleet workload. Seed 1 is E23's
// fault-level-1 fleet seed, so its first 250 vehicles are E23's
// variants; every other seed starts a distinct fleet.
func fleetConfig(seed uint64, vehicles int, faultProb float64) fleet.CampaignConfig {
	return fleet.CampaignConfig{
		FleetSeed: 0xE23<<8 | 1 + (seed-1)*1_000_003,
		Vehicles:  vehicles,
		Update:    fleet.UpdateSpec{Verify: true, FaultProb: faultProb},
		Workers:   fleetWorkers,
	}
}

func setupFleet(seed uint64) func(*pass) {
	cfg := fleetConfig(seed, fleetVehicles, 0.1)
	return func(p *pass) {
		p.op("campaign", func() error {
			var rep *fleet.FleetReport
			var err error
			p.timed("", func() { rep, err = fleet.RunCampaign(cfg) })
			if err != nil {
				return err
			}
			p.counts["fleet.shipped"] += float64(rep.Shipped)
			p.counts["fleet.rolled_back"] += float64(rep.RolledBack)
			var sb strings.Builder
			rep.Render(&sb)
			p.pin(fmt.Sprintf("fleet render=%s", sha(sb.String())))
			return checkCampaign(rep, cfg.Vehicles)
		})
	}
}

// checkCampaign requires every vehicle of the fleet to be accounted for
// exactly once.
func checkCampaign(rep *fleet.FleetReport, vehicles int) error {
	n := rep.Shipped + rep.RolledBack + rep.Failed + rep.RemoteRollbacks + rep.Skipped
	if n != vehicles || len(rep.Vehicles) != vehicles {
		return fmt.Errorf("%d outcomes and %d reports for %d vehicles", n, len(rep.Vehicles), vehicles)
	}
	return nil
}

// ---- fuzz ------------------------------------------------------------

const (
	fuzzSeeds   = 300
	fuzzWorkers = 2
)

// fuzzSeedRange is the fuzz seeds one workload seed covers: seed 1 is
// the sweep 1..300, seed 2 is 301..600, and so on.
func fuzzSeedRange(seed uint64) []uint64 {
	out := make([]uint64, fuzzSeeds)
	for i := range out {
		out[i] = (seed-1)*fuzzSeeds + uint64(i) + 1
	}
	return out
}

func setupFuzz(seed uint64) func(*pass) {
	specs := make([]fuzz.Spec, fuzzSeeds)
	for i, s := range fuzzSeedRange(seed) {
		specs[i] = fuzz.Generate(s)
	}
	return func(p *pass) {
		reps := make([]fuzz.Report, len(specs))
		secs := make([]float64, len(specs))
		err := par.ForEach(len(specs), fuzzWorkers, func(i int) {
			t0 := time.Now()
			reps[i] = fuzz.Check(specs[i])
			secs[i] = time.Since(t0).Seconds()
		})
		p.opSecs = secs
		for _, s := range secs {
			p.busy += s
		}
		fps := sha256.New()
		for i, rep := range reps {
			p.ops++
			if err != nil && rep.Fingerprint == "" {
				p.fail(fmt.Sprintf("seed %d: not checked: %v", specs[i].Seed, err))
				continue
			}
			if rep.Failed() {
				p.fail(fmt.Sprintf("seed %d: %d violation(s), first %s: %s", specs[i].Seed,
					len(rep.Violations), rep.Violations[0].Property, rep.Violations[0].Detail))
			}
			_, _ = io.WriteString(fps, rep.Fingerprint+"\n")
		}
		p.pin(fmt.Sprintf("fuzz v%d fingerprints=%s", fuzz.Version, hex.EncodeToString(fps.Sum(nil))))
	}
}
