package experiments

import (
	"bytes"
	"testing"
)

// TestE22Deterministic: the full self-healing sweep — fault schedules,
// silence detections, recovery plans, sheds, endpoint migrations,
// re-balances and redundancy failovers — must be byte-identical run to
// run. Sixteen kernels and eight orchestrators, rendered twice and
// compared.
func TestE22Deterministic(t *testing.T) {
	a, err := Run("E22")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("E22")
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	a.Render(&ba)
	b.Render(&bb)
	if ba.String() != bb.String() {
		t.Errorf("E22 not byte-identical across runs:\n--- first\n%s\n--- second\n%s",
			ba.String(), bb.String())
	}
	if !a.Holds {
		t.Error("E22 expectation violated")
	}
}
