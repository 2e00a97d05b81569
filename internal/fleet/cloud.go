package fleet

import (
	"fmt"
	"io"

	"dynaplat/internal/sim"
)

// CampaignConfig parameterizes a fleet-wide staged OTA campaign run by
// the simulated OEM cloud backend.
type CampaignConfig struct {
	// FleetSeed seeds the fleet; vehicle i runs from FleetSeed ⊕ i.
	FleetSeed uint64
	// Vehicles is the fleet size.
	Vehicles int
	// CanaryFraction sizes the first (canary) wave as a fraction of the
	// fleet (0 → 0.02). At least one vehicle.
	CanaryFraction float64
	// Ramp multiplies each subsequent wave's size (0 → 3; min 1).
	Ramp float64
	// Update is the payload every vehicle receives.
	Update UpdateSpec

	// Abort enables the backend's abort-on-regression policy: after each
	// wave the backend compares the wave's aggregate against the budgets
	// below and halts the campaign on a breach.
	Abort bool
	// MaxFailureRate is the per-wave budget for updates that did not
	// ship (rolled back or failed). Breach ⇒ abort (0 → 0.05).
	MaxFailureRate float64
	// MaxAvailRegression is the per-wave budget for mean availability
	// regression (pre − post). Breach ⇒ abort (0 → 0.02). Comparing
	// against each vehicle's own baseline keeps congenitally loaded
	// variants from masking (or faking) an update regression.
	MaxAvailRegression float64
	// RollbackInFlight additionally commands a rollback of the breaching
	// wave's already-shipped vehicles when the campaign halts.
	RollbackInFlight bool

	// Workers bounds the shard worker pool (0 → GOMAXPROCS).
	Workers int
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.CanaryFraction <= 0 {
		c.CanaryFraction = 0.02
	}
	if c.Ramp < 1 {
		c.Ramp = 3
	}
	if c.MaxFailureRate <= 0 {
		c.MaxFailureRate = 0.05
	}
	if c.MaxAvailRegression <= 0 {
		c.MaxAvailRegression = 0.02
	}
	return c
}

// WaveStats aggregates one rollout wave.
type WaveStats struct {
	Wave     int
	Vehicles int

	Shipped, RolledBack, Failed int

	// MeanPre/MeanPost average the wave's per-vehicle availabilities;
	// Regression is MeanPre − MeanPost (positive = worse after update).
	MeanPre, MeanPost, Regression float64
	// FailureRate is (RolledBack + Failed) / Vehicles.
	FailureRate float64
	// MaxSpan is the wave's longest OTA session; SpanP50/P95/P99 are the
	// wave's session-length percentiles. Tail percentiles, not the mean,
	// are what a rollout scheduler budgets by: one straggling vehicle
	// stretches MaxSpan but only the p99 says whether it is an outlier.
	MaxSpan sim.Duration
	SpanP50 sim.Duration
	SpanP95 sim.Duration
	SpanP99 sim.Duration
	// DeadLetters sums middleware teardown drops across the wave.
	DeadLetters int64
	// Breached marks the wave that tripped the abort budgets.
	Breached bool
}

// FleetReport is the campaign result: per-wave aggregates plus every
// vehicle's report, sorted by vehicle index.
type FleetReport struct {
	Config CampaignConfig
	Waves  []WaveStats
	// Vehicles holds one report per fleet vehicle (including skipped
	// ones), ascending by Index.
	Vehicles []VehicleReport

	// Halted reports that the backend aborted the campaign; HaltedWave
	// is the breaching wave's number.
	Halted     bool
	HaltedWave int

	Shipped, RolledBack, Failed, RemoteRollbacks, Skipped int
}

// ShipRate is the fraction of the fleet left running the new version.
func (r *FleetReport) ShipRate() float64 {
	if len(r.Vehicles) == 0 {
		return 0
	}
	return float64(r.Shipped) / float64(len(r.Vehicles))
}

// Render writes the canonical campaign report: a wave table, totals, and
// one line per vehicle. Byte-identical per (config, seed) regardless of
// worker count.
func (r *FleetReport) Render(w io.Writer) {
	fmt.Fprintf(w, "fleet seed=%#x vehicles=%d canary=%.3f ramp=%.1f verify=%v abort=%v\n",
		r.Config.FleetSeed, r.Config.Vehicles, r.Config.CanaryFraction,
		r.Config.Ramp, r.Config.Update.Verify, r.Config.Abort)
	for _, ws := range r.Waves {
		status := "ok"
		if ws.Breached {
			status = "BREACH"
		}
		fmt.Fprintf(w,
			"wave %d: vehicles=%d shipped=%d rolled-back=%d failed=%d fail-rate=%.3f pre=%.1f%% post=%.1f%% regr=%+.3f span-p50/p95/p99/max=%.2f/%.2f/%.2f/%.2fms dead=%d %s\n",
			ws.Wave, ws.Vehicles, ws.Shipped, ws.RolledBack, ws.Failed,
			ws.FailureRate, ws.MeanPre*100, ws.MeanPost*100, ws.Regression,
			float64(ws.SpanP50)/float64(sim.Millisecond),
			float64(ws.SpanP95)/float64(sim.Millisecond),
			float64(ws.SpanP99)/float64(sim.Millisecond),
			float64(ws.MaxSpan)/float64(sim.Millisecond), ws.DeadLetters, status)
	}
	if r.Halted {
		fmt.Fprintf(w, "campaign HALTED at wave %d\n", r.HaltedWave)
	}
	fmt.Fprintf(w, "totals: shipped=%d rolled-back=%d failed=%d remote-rollback=%d skipped=%d ship-rate=%.3f\n",
		r.Shipped, r.RolledBack, r.Failed, r.RemoteRollbacks, r.Skipped, r.ShipRate())
	for _, v := range r.Vehicles {
		fmt.Fprintf(w, "  %s\n", v.Render())
	}
}

// waveSizes splits the fleet into canary + ramped rollout waves.
func waveSizes(vehicles int, canary, ramp float64) []int {
	var sizes []int
	size := int(float64(vehicles) * canary)
	if size < 1 {
		size = 1
	}
	remaining := vehicles
	for remaining > 0 {
		if size > remaining {
			size = remaining
		}
		sizes = append(sizes, size)
		remaining -= size
		size = int(float64(size) * ramp)
		if size < 1 {
			size = 1
		}
	}
	return sizes
}

// RunCampaign drives the staged OTA campaign over the fleet: the canary
// wave first, then ramped rollout waves, aggregating each wave and —
// under the abort policy — halting (and optionally rolling back the
// breaching wave) when a wave exceeds its failure or regression budget.
// Each wave's vehicles are sharded across cfg.Workers workers.
func RunCampaign(cfg CampaignConfig) (*FleetReport, error) { return runCampaign(cfg, runWave) }

// RunCampaignSerial runs the same campaign on the calling goroutine
// alone, ignoring cfg.Workers; its report is byte-identical to
// RunCampaign's. It is the entry point for single-threaded callers such
// as the dynaplat facade, which must not reach a worker pool. A panicking
// vehicle simulation propagates instead of surfacing as an error.
func RunCampaignSerial(cfg CampaignConfig) (*FleetReport, error) {
	return runCampaign(cfg, serialWave)
}

// waveRunner simulates vehicles [lo, hi) and returns their reports in
// index order.
type waveRunner func(cfg CampaignConfig, lo, hi int) ([]VehicleReport, error)

func runCampaign(cfg CampaignConfig, wave waveRunner) (*FleetReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Vehicles <= 0 {
		return nil, fmt.Errorf("fleet: campaign needs at least one vehicle, got %d", cfg.Vehicles)
	}
	rep := &FleetReport{Config: cfg}
	rep.Vehicles = make([]VehicleReport, 0, cfg.Vehicles)

	next := 0
	for wi, size := range waveSizes(cfg.Vehicles, cfg.CanaryFraction, cfg.Ramp) {
		if rep.Halted {
			// Campaign halted: the remaining fleet never receives the
			// update. Reports carry identity only — the vehicles' own
			// simulations never ran.
			for i := next; i < cfg.Vehicles; i++ {
				rep.Vehicles = append(rep.Vehicles, VehicleReport{
					Index: i, ID: VehicleID(i), Outcome: OutcomeSkipped,
				})
				rep.Skipped++
			}
			break
		}

		reports, err := wave(cfg, next, next+size)
		if err != nil {
			return nil, err
		}
		ws := WaveStats{Wave: wi, Vehicles: size}
		var spans sim.Sample
		for _, v := range reports {
			switch v.Outcome {
			case OutcomeShipped:
				ws.Shipped++
			case OutcomeRolledBack:
				ws.RolledBack++
			default:
				ws.Failed++
			}
			ws.MeanPre += v.PreAvail
			ws.MeanPost += v.PostAvail
			ws.DeadLetters += v.DeadLetters
			spans.AddDuration(v.UpdateSpan)
		}
		ws.MaxSpan = spans.PercentileDuration(100)
		ws.SpanP50 = spans.PercentileDuration(50)
		ws.SpanP95 = spans.PercentileDuration(95)
		ws.SpanP99 = spans.PercentileDuration(99)
		ws.MeanPre /= float64(size)
		ws.MeanPost /= float64(size)
		ws.Regression = ws.MeanPre - ws.MeanPost
		ws.FailureRate = float64(ws.RolledBack+ws.Failed) / float64(size)

		if cfg.Abort &&
			(ws.FailureRate > cfg.MaxFailureRate || ws.Regression > cfg.MaxAvailRegression) {
			ws.Breached = true
			rep.Halted = true
			rep.HaltedWave = wi
			if cfg.RollbackInFlight {
				// Command the breaching wave's shipped vehicles back to
				// the old version.
				for i := range reports {
					if reports[i].Outcome == OutcomeShipped {
						reports[i].Outcome = OutcomeRemoteRollback
					}
				}
				ws.Shipped = 0
			}
		}

		for _, v := range reports {
			switch v.Outcome {
			case OutcomeShipped:
				rep.Shipped++
			case OutcomeRolledBack:
				rep.RolledBack++
			case OutcomeRemoteRollback:
				rep.RemoteRollbacks++
			default:
				rep.Failed++
			}
		}
		rep.Vehicles = append(rep.Vehicles, reports...)
		rep.Waves = append(rep.Waves, ws)
		next += size
	}
	return rep, nil
}
