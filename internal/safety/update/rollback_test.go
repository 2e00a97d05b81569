package update

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dynaplat/internal/platform"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
)

func TestStagedVerifiedSuccess(t *testing.T) {
	r := newRig(t)
	r.installV1(t)
	var rep Report
	err := r.mgr.Staged("brake", brakeSpec(2), platform.Behavior{},
		[]Offers{{Iface: "BrakeStatus", Opts: offerBB()}},
		100*sim.Millisecond, func() error { return nil },
		func(rp Report) { rep = rp })
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunUntil(sim.Time(ms(2000)))
	if rep.RolledBack {
		t.Fatal("successful update rolled back")
	}
	if len(rep.Stamps) != 4 {
		t.Fatalf("stamps = %v", rep.Stamps)
	}
	if inst, _ := r.p.FindApp("brake@2"); inst == nil || inst.State != platform.StateRunning {
		t.Error("new version not running")
	}
	if inst, _ := r.p.FindApp("brake"); inst != nil {
		t.Error("old version still present")
	}
	if r.mgr.InstanceName("brake") != "brake@2" {
		t.Error("active name not switched")
	}
}

func TestStagedVerifiedRollback(t *testing.T) {
	r := newRig(t)
	old := r.installV1(t)
	bad := errors.New("new version misbehaves in soak")
	var rep Report
	err := r.mgr.Staged("brake", brakeSpec(2), platform.Behavior{},
		[]Offers{{Iface: "BrakeStatus", Opts: offerBB()}},
		100*sim.Millisecond, func() error { return bad },
		func(rp Report) { rep = rp })
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunUntil(sim.Time(ms(2000)))
	if !rep.RolledBack {
		t.Fatal("failed verification did not roll back")
	}
	// Old version still serving, new version gone.
	if old.State != platform.StateRunning {
		t.Error("old version not running after rollback")
	}
	if inst, _ := r.p.FindApp("brake@2"); inst != nil {
		t.Error("new version still installed after rollback")
	}
	if r.mgr.InstanceName("brake") != "brake" {
		t.Errorf("active name = %q", r.mgr.InstanceName("brake"))
	}
	// Service points back at the old version.
	prov, _, err := r.mw.Find("BrakeStatus")
	if err != nil || prov != "brake" {
		t.Errorf("provider after rollback = %q (%v)", prov, err)
	}
	// The abort is on the diagnosis record.
	if r.node.Diag().CountKind(platform.FaultUpdateAborted) == 0 {
		t.Error("rollback not recorded in diagnosis")
	}
	// Old version must have served continuously (no missed periods).
	if old.Misses != 0 {
		t.Errorf("old version missed %d deadlines through the rollback", old.Misses)
	}
}

func offerBB() soa.OfferOpts { return soa.OfferOpts{Network: "bb"} }

// stateFingerprint renders the externally observable vehicle state the
// update machinery touches: installed apps, committed memory, the
// persistence store, service discovery, endpoint registry, and the
// manager's active-version map.
func (r *rig) stateFingerprint() string {
	var b strings.Builder
	for _, name := range []string{"brake", "brake@2"} {
		inst, _ := r.p.FindApp(name)
		if inst == nil {
			fmt.Fprintf(&b, "app %s: absent\n", name)
			continue
		}
		fmt.Fprintf(&b, "app %s: v%d state=%v mem=%d\n",
			name, inst.Spec.Version, inst.State, inst.Spec.MemoryKB)
	}
	fmt.Fprintf(&b, "committed=%dKB\n", r.node.Memory().CommittedKB())
	for _, app := range []string{"brake", "brake@2"} {
		for _, k := range r.node.Store().Keys(app) {
			v, _ := r.node.Store().Get(app, k)
			fmt.Fprintf(&b, "store %s/%s=%q\n", app, k, v)
		}
		fmt.Fprintf(&b, "endpoint %s: %v\n", app, r.mw.EndpointOf(app) != nil)
	}
	for _, svc := range r.mw.Services() {
		prov, ver, _ := r.mw.Find(svc)
		fmt.Fprintf(&b, "svc %s provider=%s v%d\n", svc, prov, ver)
	}
	fmt.Fprintf(&b, "active=%s\n", r.mgr.InstanceName("brake"))
	return b.String()
}

// TestStagedVerifiedRollbackByteIdentity: an update aborted mid-wave
// must leave the vehicle's admission/endpoint state byte-identical to
// the pre-update state — including the persistence store (no leaked
// state synchronized to the dead new version) and service discovery (no
// ghost services from interfaces only the new version offered).
func TestStagedVerifiedRollbackByteIdentity(t *testing.T) {
	r := newRig(t)
	r.installV1(t)
	pre := r.stateFingerprint()

	// The v2 image also introduces a brand-new interface: on rollback it
	// must vanish, not be re-homed onto the v1 provider.
	var rep Report
	err := r.mgr.Staged("brake", brakeSpec(2), platform.Behavior{},
		[]Offers{
			{Iface: "BrakeStatus", Opts: offerBB()},
			{Iface: "BrakeStatusV2Extra", Opts: offerBB()},
		},
		100*sim.Millisecond, func() error { return errors.New("soak regression") },
		func(rp Report) { rep = rp })
	if err != nil {
		t.Fatal(err)
	}
	r.k.RunUntil(sim.Time(ms(2000)))
	if !rep.RolledBack {
		t.Fatal("verification failure did not roll back")
	}
	if post := r.stateFingerprint(); post != pre {
		t.Errorf("rollback left state differing from pre-update:\n--- pre ---\n%s--- post ---\n%s", pre, post)
	}
}
