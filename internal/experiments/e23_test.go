package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"dynaplat/internal/fleet"
)

// e23TableSHA is the SHA-256 of the rendered E23 table (the bytes `go
// run ./cmd/exprun E23 | sha256sum` hashes). Its bare policies are the
// only blind staged updates run at fleet scale, so a change to the
// update engine, the vehicle or the campaign must leave it as it is.
const e23TableSHA = "a0bd429afc876c263f59a90ef6c304cc6a0362d425f13101098885680ae49396"

// TestE23Deterministic: twelve fleet campaigns over 3000 heterogeneous
// vehicle simulations must render byte-identically run to run, and to
// e23TableSHA.
func TestE23Deterministic(t *testing.T) {
	a, err := Run("E23")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("E23")
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	a.Render(&ba)
	b.Render(&bb)
	if ba.String() != bb.String() {
		t.Errorf("E23 not byte-identical across runs:\n--- first\n%s\n--- second\n%s",
			ba.String(), bb.String())
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(ba.Bytes())); got != e23TableSHA {
		t.Errorf("E23 table sha256 %s, want %s:\n%s", got, e23TableSHA, ba.String())
	}
	if !a.Holds {
		t.Errorf("E23 expectation violated:\n%s", ba.String())
	}
}

// TestE23ShardIndependence: an E23 cell's fleet report is byte-identical
// whether its vehicles run serially or sharded over any worker count —
// the cell pins Workers to 1 purely as a scheduling choice, not a
// correctness requirement.
func TestE23ShardIndependence(t *testing.T) {
	render := func(workers int) string {
		rep, err := fleet.RunCampaign(fleet.CampaignConfig{
			FleetSeed: 0xE23<<8 | 2, Vehicles: e23Vehicles,
			Update: fleet.UpdateSpec{Verify: true, FaultProb: 0.40},
			Abort:  true, RollbackInFlight: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		return buf.String()
	}
	serial := render(1)
	for _, workers := range []int{3, 8} {
		if got := render(workers); got != serial {
			t.Errorf("workers=%d: E23 cell rendering differs from serial", workers)
		}
	}
}
