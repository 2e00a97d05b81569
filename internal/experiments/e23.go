package experiments

import (
	"fmt"

	"dynaplat/internal/fleet"
	"dynaplat/internal/obs"
)

func init() {
	register("E23", runE23)
}

// E23 — §3.2 at fleet scale: staged OTA rollout across a heterogeneous
// vehicle fleet. Each cell runs a 250-vehicle fleet of independently
// seeded variants (ECU counts, bus technologies, app mixes drawn from
// the model generator) through a cloud-orchestrated update campaign
// under a seeded bad-image rate, in four rollout policies:
//
//   - bare:          blind staged update, no verification, no abort —
//                    whatever arrives is committed
//   - verify:        on-vehicle soak verification with local rollback,
//                    but the cloud keeps rolling the fleet
//   - canary2+abort: 2% canary cohort, ramped waves, abort-on-regression
//                    with halt-and-rollback of the breaching wave
//   - canary10+abort: the same with a 10% canary cohort
//
// The fleet seed depends only on the fault level, so every policy at a
// level faces the bit-identical fleet and bad-image schedule (the bad
// column must match between the policies that cover the whole fleet).
// The claim: a bad update that bare rollout ships to 100% of the fleet
// is caught by the canary cohort, bounding the blast radius to under
// 15% — while on-vehicle verification alone protects each vehicle but
// still burns the whole fleet's update sessions.

const e23Vehicles = 250

// e23Policy is one rollout policy.
type e23Policy struct {
	name   string
	verify bool
	canary float64 // 0 = default canary; meaningful only with abort
	abort  bool
}

func e23Policies() []e23Policy {
	return []e23Policy{
		{name: "bare"},
		{name: "verify", verify: true},
		{name: "canary2+abort", verify: true, canary: 0.02, abort: true},
		{name: "canary10+abort", verify: true, canary: 0.10, abort: true},
	}
}

// e23FaultLevels returns the seeded bad-image probabilities.
func e23FaultLevels() []float64 { return []float64{0, 0.15, 0.40} }

// e23Cell runs one fleet campaign. Workers is pinned to 1: experiments
// themselves fan out across the harness worker pool, and the cell result
// is byte-identical at any shard width anyway (TestE23ShardIndependence).
func e23Cell(li int, prob float64, pol e23Policy) *fleet.FleetReport {
	cfg := fleet.CampaignConfig{
		FleetSeed:        0xE23<<8 | uint64(li),
		Vehicles:         e23Vehicles,
		CanaryFraction:   pol.canary,
		Update:           fleet.UpdateSpec{Verify: pol.verify, FaultProb: prob},
		Abort:            pol.abort,
		RollbackInFlight: pol.abort,
		Workers:          1,
	}
	rep, err := fleet.RunCampaign(cfg)
	if err != nil {
		panic(fmt.Sprintf("E23: %s at fault %.2f: %v", pol.name, prob, err))
	}
	return rep
}

func runE23(_ *obs.Env) *Table {
	t := &Table{
		ID: "E23", Title: "Fleet-scale staged OTA rollout",
		Source: "§3.2 (staged updates) scaled to a heterogeneous fleet with a cloud backend",
		Columns: []string{"fault", "policy", "bad", "shipped", "rolled-back",
			"skipped", "ship-rate", "post-avail", "waves",
			"span-p50/p95/p99(ms)", "halted"},
		Expectation: "a seeded bad update that bare rollout ships to 100% of the " +
			"fleet is halted by the canary cohort under abort-on-regression " +
			"(ship rate < 15%), every policy at a fault level faces the " +
			"bit-identical fleet, and a clean update ships everywhere",
	}
	t.Holds = true
	levels := e23FaultLevels()
	top := len(levels) - 1
	for li, prob := range levels {
		levelBad := -1
		for _, pol := range e23Policies() {
			rep := e23Cell(li, prob, pol)

			// Aggregate over the simulated (non-skipped) vehicles.
			bad := 0
			postSum, postN := 0.0, 0
			for _, v := range rep.Vehicles {
				if v.Outcome == fleet.OutcomeSkipped {
					continue
				}
				if v.BadImage {
					bad++
				}
				postSum += v.PostAvail
				postN++
			}
			postAvail := postSum / float64(postN)
			rolledBack := rep.RolledBack + rep.RemoteRollbacks
			halted := "-"
			if rep.Halted {
				halted = fmt.Sprintf("wave%d", rep.HaltedWave)
			}
			// Worst wave by p95: the rollout scheduler's budget figure.
			var worst fleet.WaveStats
			for _, ws := range rep.Waves {
				if ws.SpanP95 >= worst.SpanP95 {
					worst = ws
				}
			}
			spans := fmt.Sprintf("%.2f/%.2f/%.2f",
				float64(worst.SpanP50)/1e6, float64(worst.SpanP95)/1e6,
				float64(worst.SpanP99)/1e6)
			t.AddRow(fmt.Sprintf("%.2f", prob), pol.name, itoa(int64(bad)),
				itoa(int64(rep.Shipped)), itoa(int64(rolledBack)),
				itoa(int64(rep.Skipped)), fmt.Sprintf("%.3f", rep.ShipRate()),
				pct(postAvail), itoa(int64(len(rep.Waves))), spans, halted)

			// Identical fleet per level: the full-coverage policies must
			// see the identical bad-image schedule.
			if !rep.Halted && rep.Skipped == 0 {
				if levelBad == -1 {
					levelBad = bad
				} else if bad != levelBad {
					t.Holds = false
				}
			}
			// Clean image: every policy ships the whole fleet.
			if li == 0 && (rep.ShipRate() != 1.0 || rep.Halted) {
				t.Holds = false
			}
			if li == top {
				switch {
				case pol.name == "bare":
					// Ships everything — including the bad images, which
					// visibly degrade fleet availability.
					if rep.ShipRate() != 1.0 || rep.Halted || postAvail > 0.97 {
						t.Holds = false
					}
				case !pol.abort:
					// On-vehicle verification protects each vehicle
					// (exactly the bad images roll back, availability
					// stays intact) but the fleet-wide rollout proceeds.
					if rep.Halted || rolledBack != bad || postAvail < 0.99 {
						t.Holds = false
					}
				default:
					// Canary + abort bounds the blast radius.
					if !rep.Halted || rep.ShipRate() >= 0.15 {
						t.Holds = false
					}
				}
			}
		}
	}
	return t
}
