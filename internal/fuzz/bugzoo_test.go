package fuzz

import (
	"testing"

	"dynaplat/internal/safety/update"
	"dynaplat/internal/soa"
)

// The oracle must catch the ghost-service rollback leak (the defect
// the verified update originally shipped with, reintroducible via
// update.BugRollbackReofferAll): a failing update whose v2 introduced a
// new interface re-offers that interface onto the v1 provider during
// rollback, so post-rollback service state differs from the pre-update
// capture. Detection is deterministic — any update-tier seed with a bad
// image and an extra v2 interface trips property 5 on its first run.
func TestOracleCatchesRollbackReofferAll(t *testing.T) {
	var eligible []uint64
	for seed := uint64(1); seed <= 500 && len(eligible) < 3; seed++ {
		sp := Generate(seed)
		if sp.Update != nil && sp.Update.Bad && sp.Update.ExtraIface {
			eligible = append(eligible, seed)
		}
	}
	if len(eligible) == 0 {
		t.Fatal("no eligible update seed in 1..500 — generator distribution changed?")
	}

	for _, seed := range eligible {
		if CheckSeed(seed).Failed() {
			t.Fatalf("seed %d: oracle fails with the bug flag off", seed)
		}
	}

	update.BugRollbackReofferAll = true
	defer func() { update.BugRollbackReofferAll = false }()
	for _, seed := range eligible {
		rep := CheckSeed(seed)
		found := false
		for _, v := range rep.Violations {
			if v.Property == PropRollback {
				found = true
			}
		}
		if !found {
			t.Errorf("seed %d: ghost-service rollback leak not caught: %+v",
				seed, rep.Violations)
		}
	}
}

// The oracle must catch the unsorted-migration attach order (the map-
// iteration defect Endpoint.Migrate originally shipped with,
// reintroducible via soa.BugUnsortedMigrateAttach): a dual-homed
// endpoint migrating to a fresh station attaches it to its networks in
// map-iteration order, which differs between runs of the same seed —
// property 1 (re-run identity) or 2 (observation neutrality) trips on
// the fingerprint's attach line; the trace artifacts do not show it.
//
// Go randomises where map iteration starts, so a run draws an order other
// than the first run's with a per-seed probability p (about 0.1–0.7,
// measured over 40 checks of each eligible seed). Check's two
// fingerprint comparisons, the two observed runs each against the plain
// run, miss a seed with probability (1-p)². The measured product over
// the first 8 eligible seeds was about 1e-3, over the first 24 about
// 2e-8, so the test takes 24. It stops at the first catch, so
// the extra seeds cost nothing while the oracle works.
func TestOracleCatchesUnsortedMigrateAttach(t *testing.T) {
	var eligible []uint64
	for seed := uint64(1); seed <= 2000 && len(eligible) < 24; seed++ {
		sp := Generate(seed)
		if sp.Aux == nil || len(sp.Migrations) == 0 {
			continue
		}
		dual := map[string]bool{}
		for _, p := range sp.Pubs {
			if p.AuxIface != "" {
				dual[p.App.Name] = true
			}
		}
		for _, m := range sp.Migrations {
			if dual[m.App] {
				eligible = append(eligible, seed)
				break
			}
		}
	}
	if len(eligible) == 0 {
		t.Fatal("no dual-homed migration seed in 1..2000 — generator distribution changed?")
	}

	soa.BugUnsortedMigrateAttach = true
	defer func() { soa.BugUnsortedMigrateAttach = false }()
	for _, seed := range eligible {
		rep := CheckSeed(seed)
		for _, v := range rep.Violations {
			if v.Property == PropRerun || v.Property == PropObsNeutral {
				return // caught
			}
		}
	}
	t.Errorf("unsorted migrate attach not caught across %d eligible seeds %v",
		len(eligible), eligible)
}
