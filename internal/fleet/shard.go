package fleet

import (
	"fmt"

	"dynaplat/internal/par"
)

// runWave simulates vehicles [lo, hi) sharded across the worker pool.
// Each worker drives independent single-threaded kernels (one vehicle at
// a time) and writes each report at its vehicle's index — never in
// arrival or map order — so the result is byte-identical for any worker
// count. A panicking vehicle simulation is contained by the pool and
// surfaces as an error naming the vehicle.
func runWave(cfg CampaignConfig, lo, hi int) ([]VehicleReport, error) {
	out := make([]VehicleReport, hi-lo)
	if err := par.ForEach(hi-lo, cfg.Workers, func(i int) {
		out[i] = RunVehicle(cfg.FleetSeed, lo+i, cfg.Update)
	}); err != nil {
		if pe, ok := err.(*par.PanicError); ok {
			return nil, fmt.Errorf("fleet: vehicle %s panicked: %w", VehicleID(lo+pe.Index), pe)
		}
		return nil, err
	}
	return out, nil
}

// serialWave simulates vehicles [lo, hi) one after another on the calling
// goroutine.
func serialWave(cfg CampaignConfig, lo, hi int) ([]VehicleReport, error) {
	out := make([]VehicleReport, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, RunVehicle(cfg.FleetSeed, i, cfg.Update))
	}
	return out, nil
}
