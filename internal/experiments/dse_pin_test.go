package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestDSETablesPinned pins the rendered E11 and E20 tables, which carry
// the design-space searches' optima, Pareto front and evaluation
// counts, to the SHA-256 of their bytes (the same bytes
// `go run ./cmd/exprun E11 | sha256sum` hashes). A change to how
// placements are enumerated, sampled or scored must leave both as they
// are.
func TestDSETablesPinned(t *testing.T) {
	for _, pin := range []struct{ id, sha string }{
		{"E11", "e3dcd6f1c3650587255b0744185de9a93c36a4d858bc8d698ec08018e6d4270d"},
		{"E20", "e1ea4a4fd35b8da2cf4a4df7aa47819c09567fba5a3f7b524983e222d6383bb7"},
	} {
		tbl, err := Run(pin.id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != pin.sha {
			t.Errorf("%s table sha256 %s, want %s:\n%s", pin.id, got, pin.sha, buf.String())
		}
	}
}
