package dynaplat

import (
	"testing"
)

func TestFacadeRedundancy(t *testing.T) {
	s, err := FromDSL(demoDSL, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewRedundancyManager(s)
	spec := App{Name: "Steer", Kind: Deterministic, ASIL: ASILD, Period: 10 * Millisecond,
		WCET: Millisecond, Deadline: 10 * Millisecond, MemoryKB: 64, Replicas: 2, Version: 1}
	g, err := mgr.Replicate(spec, []string{"CPM", "Zone"}, Behavior{}, DefaultRedundancyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	s.Kernel.At(Time(200*Millisecond), func() { mgr.FailECU("CPM") })
	s.Run(Second)
	if len(g.Failovers) != 1 || g.Failovers[0].FailedECU != "CPM" || g.Master() == nil {
		t.Errorf("failovers = %+v, want one failover away from CPM", g.Failovers)
	}
}

func TestFacadePackageTrust(t *testing.T) {
	oem := NewPackageAuthority("OEM", [32]byte{1})
	trust := NewTrustStore()
	signed := oem.Sign(Package{App: "Brake", Version: 2, Image: []byte("image")})
	if err := trust.Verify(signed); err == nil {
		t.Error("package from an untrusted authority verified")
	}
	trust.Trust("OEM", oem.PublicKey())
	if err := trust.Verify(signed); err != nil {
		t.Errorf("trusted package rejected: %v", err)
	}
}
