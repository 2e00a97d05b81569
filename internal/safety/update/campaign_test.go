package update_test

// Fleet-side rollout of the staged update: a campaign ships
// the verified update.Staged to every vehicle of a fleet in waves (canary
// first) and halts when a wave exceeds its failure budget. The campaign
// engine lives in the fleet package; these tests pin the rollout
// contract from the update side.

import (
	"testing"

	"dynaplat/internal/fleet"
)

func TestCampaignFullRollout(t *testing.T) {
	rep, err := fleet.RunCampaignSerial(fleet.CampaignConfig{
		FleetSeed: 1, Vehicles: 100, CanaryFraction: 0.01,
		Update: fleet.UpdateSpec{Verify: true},
		Abort:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Halted || rep.Shipped != 100 || rep.RolledBack != 0 || rep.Failed != 0 {
		t.Fatalf("halted=%v shipped=%d rolled-back=%d failed=%d, want a clean 100-vehicle rollout",
			rep.Halted, rep.Shipped, rep.RolledBack, rep.Failed)
	}
	if len(rep.Waves) < 3 {
		t.Fatalf("waves = %+v, want canary plus at least two ramp waves", rep.Waves)
	}
	// Canary wave is 1 vehicle (1% of 100).
	if rep.Waves[0].Vehicles != 1 {
		t.Errorf("canary size = %d", rep.Waves[0].Vehicles)
	}
	sum := 0
	for _, ws := range rep.Waves {
		sum += ws.Vehicles
	}
	if sum != 100 {
		t.Errorf("wave sizes sum to %d, want 100", sum)
	}
}

func TestCampaignHaltsOnCanaryFailure(t *testing.T) {
	// Every vehicle receives a bad image, so the canary rolls back.
	rep, err := fleet.RunCampaignSerial(fleet.CampaignConfig{
		FleetSeed: 1, Vehicles: 100, CanaryFraction: 0.01,
		Update: fleet.UpdateSpec{Verify: true, FaultProb: 1},
		Abort:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Halted || rep.HaltedWave != 0 {
		t.Fatalf("halted=%v at wave %d, want a halt at the canary wave", rep.Halted, rep.HaltedWave)
	}
	// Only the canary wave was attempted: the fleet is protected.
	if len(rep.Waves) != 1 || rep.Skipped != 99 {
		t.Errorf("waves=%d skipped=%d, want 1 wave and 99 skipped (canary only)",
			len(rep.Waves), rep.Skipped)
	}
	if rep.Shipped != 0 || rep.RolledBack+rep.Failed != 1 {
		t.Errorf("shipped=%d rolled-back=%d failed=%d, want the canary alone unshipped",
			rep.Shipped, rep.RolledBack, rep.Failed)
	}
}

// Rollbacks within the per-wave failure budget must not trip the abort
// policy; every vehicle is still reached and classified exactly once.
func TestCampaignToleratesBudgetedFailures(t *testing.T) {
	rep, err := fleet.RunCampaignSerial(fleet.CampaignConfig{
		FleetSeed: 0xF1EE7, Vehicles: 120, CanaryFraction: 0.1,
		Update: fleet.UpdateSpec{Verify: true, FaultProb: 0.1},
		Abort:  true, MaxFailureRate: 0.5, MaxAvailRegression: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Halted {
		t.Fatalf("halted at wave %d despite under-budget failures", rep.HaltedWave)
	}
	if rep.RolledBack == 0 {
		t.Error("no vehicle rolled back; the budget was never exercised")
	}
	if total := rep.Shipped + rep.RolledBack + rep.Failed; total != 120 || rep.Skipped != 0 {
		t.Errorf("outcomes shipped+rolled-back+failed=%d skipped=%d, want 120 and 0", total, rep.Skipped)
	}
}

func TestCampaignValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := fleet.RunCampaignSerial(fleet.CampaignConfig{Vehicles: n}); err == nil {
			t.Errorf("%d-vehicle fleet accepted", n)
		}
	}
}
