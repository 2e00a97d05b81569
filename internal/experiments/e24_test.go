package experiments

import (
	"bytes"
	"testing"
)

// TestE24Deterministic: the full service-mesh overload sweep — fault
// schedules, balancing decisions, breaker transitions, per-session
// retry jitter, shed ordering and the conservation account — must be
// byte-identical run to run. Twelve kernels, rendered twice and
// compared.
func TestE24Deterministic(t *testing.T) {
	a, err := Run("E24")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("E24")
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	a.Render(&ba)
	b.Render(&bb)
	if ba.String() != bb.String() {
		t.Errorf("E24 not byte-identical across runs:\n--- first\n%s\n--- second\n%s",
			ba.String(), bb.String())
	}
	if !a.Holds {
		t.Error("E24 expectation violated")
	}
}
