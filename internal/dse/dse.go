// Package dse implements design-space exploration over the system model
// (Section 2.3 and references [9, 14]): mapping applications to ECUs
// under resource, safety and schedulability constraints, optimizing cost,
// load and communication locality. It provides exhaustive search (exact
// but exponential), a best-fit-decreasing greedy heuristic, and simulated
// annealing, plus whole-design-space variant verification ("it needs to
// be ensured that every possible mapping is functional").
package dse

import (
	"fmt"
	"math"
	"sort"

	"dynaplat/internal/model"
	"dynaplat/internal/sim"
)

// Weights blends the objective components into a scalar cost.
type Weights struct {
	// ECUCost weights the summed Cost of ECUs that host at least one app
	// (consolidation pressure: empty ECUs can be removed from the car).
	ECUCost float64
	// MaxUtil weights the peak deterministic CPU utilization (headroom).
	MaxUtil float64
	// CrossComm weights cross-ECU communication load in Mbps (locality).
	CrossComm float64
}

// DefaultWeights returns a balanced objective.
func DefaultWeights() Weights { return Weights{ECUCost: 1, MaxUtil: 20, CrossComm: 0.5} }

// Cost is an evaluated objective, with its components kept visible.
type Cost struct {
	ECUCost   int
	UsedECUs  int
	MaxUtil   float64
	CrossMbps float64
	Total     float64
}

// Evaluate scores a fully placed system. ok is false when the placement
// is infeasible (validation errors or an unschedulable ECU).
func Evaluate(sys *model.System, w Weights) (Cost, bool) {
	sp := compile(sys)
	return sp.score(sp.base, w)
}

// Result is one exploration outcome.
type Result struct {
	Placement map[string]string
	Cost      Cost
	Feasible  bool
	// Evaluated counts objective evaluations performed.
	Evaluated int64
}

// ErrBudget reports that exhaustive search exceeded its evaluation budget.
var ErrBudget = fmt.Errorf("dse: evaluation budget exhausted")

// Exhaustive enumerates every candidate placement of the system's apps
// and returns the optimum. budget bounds objective evaluations (0 means
// 10 million); a larger space returns ErrBudget with the best of the
// first budget placements, and Evaluated == budget.
func Exhaustive(sys *model.System, w Weights, budget int64) (Result, error) {
	if budget <= 0 {
		budget = 10_000_000
	}
	sp := compile(sys)
	order := sp.byName()
	place := sp.start()
	var bestPlace []int32
	best := Result{Cost: infeasible}
	var overBudget bool

	var recurse func(i int) bool
	recurse = func(i int) bool {
		if i == len(order) {
			if best.Evaluated == budget {
				overBudget = true
				return false
			}
			best.Evaluated++
			c, ok := sp.score(place, w)
			if ok && c.Total < best.Cost.Total {
				best.Cost = c
				best.Feasible = true
				bestPlace = append(bestPlace[:0], place...)
			}
			return true
		}
		a := order[i]
		for _, e := range sp.cands[a] {
			place[a] = e
			if !recurse(i + 1) {
				return false
			}
		}
		return true
	}
	recurse(0)
	if best.Feasible {
		best.Placement = sp.placement(bestPlace)
	}
	if overBudget {
		return best, ErrBudget
	}
	return best, nil
}

// Greedy places apps best-fit-decreasing: apps sorted by descending
// utilization then memory, each onto the feasible candidate ECU that
// minimizes the incremental objective.
func Greedy(sys *model.System, w Weights) Result {
	res, _ := greedy(compile(sys), w)
	return res
}

// greedy runs Greedy on a compiled space and also returns the final
// placement (nil when greedy gets stuck).
func greedy(sp *space, w Weights) (Result, []int32) {
	place := make([]int32, len(sp.apps))
	for a := range place {
		place[a] = -1
	}
	order := make([]int32, len(sp.apps))
	for a := range order {
		order[a] = int32(a)
	}
	sort.SliceStable(order, func(i, j int) bool {
		ai, aj := sp.apps[order[i]], sp.apps[order[j]]
		ui, uj := ai.Utilization(), aj.Utilization()
		if ui != uj {
			return ui > uj
		}
		if ai.MemoryKB != aj.MemoryKB {
			return ai.MemoryKB > aj.MemoryKB
		}
		return ai.Name < aj.Name
	})
	res := Result{}
	for _, a := range order {
		bestECU := int32(-1)
		bestCost := math.Inf(1)
		for _, e := range sp.cands[a] {
			// Apps not yet placed are skipped by every rule, so this
			// scores the partial placement.
			place[a] = e
			res.Evaluated++
			if c, ok := sp.score(place, w); ok && c.Total < bestCost {
				bestCost = c.Total
				bestECU = e
			}
		}
		if bestECU < 0 {
			return Result{Feasible: false, Evaluated: res.Evaluated, Cost: infeasible}, nil
		}
		place[a] = bestECU
	}
	c, ok := sp.score(place, w)
	res.Evaluated++
	res.Cost = c
	res.Feasible = ok
	res.Placement = sp.placement(place)
	return res, place
}

// AnnealConfig tunes simulated annealing (ablation A5).
type AnnealConfig struct {
	// Iterations is the total number of neighbor proposals.
	Iterations int
	// T0 is the initial temperature; Cooling the geometric factor applied
	// every CoolEvery iterations.
	T0        float64
	Cooling   float64
	CoolEvery int
	Seed      uint64
}

// DefaultAnnealConfig returns a robust schedule for ≤ 50-app problems.
func DefaultAnnealConfig() AnnealConfig {
	return AnnealConfig{Iterations: 5000, T0: 50, Cooling: 0.95, CoolEvery: 100, Seed: 1}
}

// Anneal runs simulated annealing from the greedy solution (or a random
// feasible one when greedy fails).
func Anneal(sys *model.System, w Weights, cfg AnnealConfig) Result {
	rng := sim.NewRNG(cfg.Seed)
	sp := compile(sys)
	res, place := greedy(sp, w)
	if !res.Feasible {
		// Random restart.
		place = make([]int32, len(sp.apps))
		for a := range place {
			cs := sp.cands[a]
			place[a] = cs[rng.Intn(len(cs))]
		}
	}
	cur, curOK := sp.score(place, w)
	res.Evaluated++
	best := Result{Cost: cur, Feasible: curOK, Evaluated: res.Evaluated}
	bestPlace := append([]int32(nil), place...)

	order := sp.byName()
	if len(order) == 0 {
		best.Placement = sp.placement(bestPlace)
		return best
	}
	temp := cfg.T0
	for it := 0; it < cfg.Iterations; it++ {
		if cfg.CoolEvery > 0 && it > 0 && it%cfg.CoolEvery == 0 {
			temp *= cfg.Cooling
		}
		a := order[rng.Intn(len(order))]
		cs := sp.cands[a]
		old := place[a]
		next := cs[rng.Intn(len(cs))]
		if next == old {
			continue
		}
		place[a] = next
		cand, ok := sp.score(place, w)
		best.Evaluated++
		accept := false
		switch {
		case ok && (!curOK || cand.Total <= cur.Total):
			accept = true
		case ok && temp > 0:
			accept = rng.Float64() < math.Exp((cur.Total-cand.Total)/temp)
		}
		if accept {
			cur, curOK = cand, ok
			if ok && (!best.Feasible || cand.Total < best.Cost.Total) {
				best.Cost = cand
				best.Feasible = true
				copy(bestPlace, place)
			}
		} else {
			place[a] = old
		}
	}
	best.Placement = sp.placement(bestPlace)
	return best
}

// VariantReport summarizes whole-space verification (Section 2.3: every
// possible mapping that may be chosen in the field must be functional,
// safe and secure).
type VariantReport struct {
	Total      int64
	Feasible   int64
	Infeasible int64
	Truncated  bool
}

// VerifyAllVariants validates every candidate placement, up to limit
// combinations (0 means 1 million).
func VerifyAllVariants(sys *model.System, w Weights, limit int64) VariantReport {
	if limit <= 0 {
		limit = 1_000_000
	}
	sp := compile(sys)
	order := sp.byName()
	place := sp.start()
	rep := VariantReport{}
	var recurse func(i int) bool
	recurse = func(i int) bool {
		if i == len(order) {
			if rep.Total == limit {
				rep.Truncated = true
				return false
			}
			rep.Total++
			if _, ok := sp.score(place, w); ok {
				rep.Feasible++
			} else {
				rep.Infeasible++
			}
			return true
		}
		a := order[i]
		for _, e := range sp.cands[a] {
			place[a] = e
			if !recurse(i + 1) {
				return false
			}
		}
		return true
	}
	recurse(0)
	return rep
}
