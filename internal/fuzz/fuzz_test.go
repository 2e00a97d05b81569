package fuzz

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Two Generate calls with the same seed must render identical specs —
// (Version, seed) is the entire reproduction handle.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.Render() != b.Render() {
			t.Fatalf("seed %d: Generate is not a pure function of the seed", seed)
		}
	}
}

// Generated specs must satisfy the validity invariants run.go relies on.
func TestGenerateValid(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		sp := Generate(seed)
		ecus := map[string]bool{}
		for _, e := range sp.ECUs {
			ecus[e.Name] = true
			if e.MemoryKB <= 128 {
				t.Fatalf("seed %d: ECU %s undersized (%d KB)", seed, e.Name, e.MemoryKB)
			}
		}
		if len(sp.Pubs) == 0 {
			t.Fatalf("seed %d: no publishers", seed)
		}
		for _, p := range sp.Pubs {
			if !ecus[p.Home] {
				t.Fatalf("seed %d: pub %s homed on unknown ECU %s", seed, p.App.Name, p.Home)
			}
			if p.AuxIface != "" && sp.Aux == nil {
				t.Fatalf("seed %d: pub %s dual-homed with no aux bus", seed, p.App.Name)
			}
		}
		if sp.Mesh != nil {
			for _, svc := range sp.Mesh.Services {
				for _, h := range svc.Homes {
					if !ecus[h] {
						t.Fatalf("seed %d: service %s replica on unknown ECU %s", seed, svc.Name, h)
					}
				}
			}
		}
		if sp.Update != nil && sp.Reconfig != nil {
			t.Fatalf("seed %d: update and reconfig tiers are mutually exclusive", seed)
		}
		if len(sp.Migrations) > 0 && (sp.Update != nil || sp.Reconfig != nil) {
			t.Fatalf("seed %d: migrations in a platform tier", seed)
		}
		if sp.Reconfig != nil && sp.Campaign == nil {
			t.Fatalf("seed %d: reconfig tier without a fault campaign", seed)
		}
	}
}

// The full oracle must pass on clean seeds: every universal property
// holds on the unmutated stack. The wide sweep lives in scripts/verify.sh
// (dynafuzz -seeds 200); this keeps go test fast while still exercising
// all three runs of a passing seed.
func TestOracleCleanSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rep := CheckSeed(seed)
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %s: %s", seed, v.Property, v.Detail)
		}
	}
}

// Shrink must strip everything irrelevant to a failure predicate while
// preserving the failure itself.
func TestShrinkReduces(t *testing.T) {
	// Find a busy spec: mesh plus campaign plus a platform tier.
	var sp Spec
	found := false
	for seed := uint64(1); seed <= 500; seed++ {
		sp = Generate(seed)
		if sp.Mesh != nil && sp.Campaign != nil &&
			(sp.Update != nil || sp.Reconfig != nil) && len(sp.Pubs) > 1 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no busy seed in 1..500 — generator distribution changed?")
	}
	// Pretend the bug needs only the mesh tier.
	failing := func(s Spec) bool { return s.Mesh != nil }
	shrunk := Shrink(sp, failing)
	if !failing(shrunk) {
		t.Fatal("shrink lost the failure")
	}
	if shrunk.Campaign != nil || shrunk.Update != nil || shrunk.Reconfig != nil {
		t.Errorf("shrink kept irrelevant tiers: campaign=%v update=%v reconfig=%v",
			shrunk.Campaign != nil, shrunk.Update != nil, shrunk.Reconfig != nil)
	}
	if len(shrunk.Pubs) != 1 {
		t.Errorf("shrink kept %d publishers, want 1", len(shrunk.Pubs))
	}
	if len(shrunk.Mesh.Streams) != 1 {
		t.Errorf("shrink kept %d streams, want 1", len(shrunk.Mesh.Streams))
	}
	if len(shrunk.ECUs) != 3 && len(sp.ECUs) > 3 {
		t.Errorf("shrink kept %d ECUs, want 3", len(shrunk.ECUs))
	}
}

// The shrinker copies candidates through the spec's JSON form, so every
// field of every spec type, the layers' own included, must survive that
// round trip: a field JSON drops would change shrunk specs silently.
func TestCloneSpecLossless(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		if sp := Generate(seed); !reflect.DeepEqual(cloneSpec(sp), sp) {
			t.Fatalf("seed %d: cloneSpec lost data:\n%s", seed, sp.Render())
		}
	}
}

// The oracle's verdict itself must be reproducible: same seed, same
// report rendering.
func TestCheckDeterministic(t *testing.T) {
	a, b := CheckSeed(3), CheckSeed(3)
	if fmt.Sprintf("%+v", a.Violations) != fmt.Sprintf("%+v", b.Violations) {
		t.Fatalf("oracle verdict differs between invocations:\n%v\n%v", a.Violations, b.Violations)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatal("fingerprint differs between oracle invocations")
	}
}

// fingerprintViolation labels a fingerprint mismatch exactly and runs the
// plain tie-break only when both observed runs agree but differ from the
// plain run: a passing seed never pays for a fourth execution.
func TestFingerprintViolationLabels(t *testing.T) {
	const base, other = "fp\nattach=a,b", "fp\nattach=b,a"
	for _, tc := range []struct {
		name             string
		obs1, obs2, tie  string
		wantProp, prefix string
		wantTie          bool
	}{
		{"all equal", base, base, base, "", "", false},
		{"observed runs differ", base, other, base, PropRerun, "two runs of the same spec diverge: ", false},
		{"observed differ from plain, tie-break equal", other, other, base, PropObsNeutral, "observed run diverges from plain run: ", true},
		{"observed differ from plain, tie-break differs", other, other, other, PropRerun, "two runs of the same spec diverge: ", true},
	} {
		ran := false
		plain := func() string { ran = true; return tc.tie }
		v, ok := fingerprintViolation(base, tc.obs1, tc.obs2, plain)
		if ok != (tc.wantProp != "") || v.Property != tc.wantProp || !strings.HasPrefix(v.Detail, tc.prefix) {
			t.Errorf("%s: got %+v, %v; want %q with detail prefix %q", tc.name, v, ok, tc.wantProp, tc.prefix)
		}
		if ok && !strings.Contains(v.Detail, "line 2: ") {
			t.Errorf("%s: detail %q does not name the differing line", tc.name, v.Detail)
		}
		if ran != tc.wantTie {
			t.Errorf("%s: tie-break ran = %v, want %v", tc.name, ran, tc.wantTie)
		}
	}
}

// BenchmarkFuzzCheck runs the whole oracle (Check: one plain and two
// observed executions per passing seed) over seeds 1..50, generated outside the timer.
// One op is the 50 checks; -benchmem shows what they allocate.
func BenchmarkFuzzCheck(b *testing.B) {
	specs := make([]Spec, 50)
	for i := range specs {
		specs[i] = Generate(uint64(i + 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			if rep := Check(sp); rep.Failed() {
				b.Fatalf("seed %d: %v", sp.Seed, rep.Violations)
			}
		}
	}
}
