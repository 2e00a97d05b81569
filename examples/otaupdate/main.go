// Otaupdate walks the paper's full over-the-air update pipeline
// (Sections 3.2 and 4.1): the OEM backend signs a package, an update
// master verifies it on behalf of a weak ECU, and the running control
// application is then updated with the four-phase staged protocol —
// start new version in parallel, synchronize state, redirect traffic,
// stop the old version — without missing a single control deadline.
// Run with:
//
//	go run ./examples/otaupdate
package main

import (
	"fmt"
	"log"

	"dynaplat"
)

const vehicle = `
system OTA
ecu CPM  cpu=400MHz mem=4MB mmu crypto os=rtos cost=40
ecu Zone cpu=50MHz  mem=1MB mmu os=rtos cost=8
network Backbone type=ethernet rate=100Mbps attach=CPM,Zone

app Brake kind=da asil=D period=10ms wcet=2ms deadline=10ms mem=256KB on=CPM
iface BrakeStatus owner=Brake paradigm=event payload=16B period=10ms latency=8ms net=Backbone
`

func main() {
	s, err := dynaplat.FromDSL(vehicle, dynaplat.Options{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	// --- §4.1: sign the new software and verify it via the update master.
	var seed [32]byte
	copy(seed[:], "oem-signing-key-for-this-example")
	oem := dynaplat.NewPackageAuthority("OEM", seed)
	trust := dynaplat.NewTrustStore()
	trust.Trust("OEM", oem.PublicKey())

	image := make([]byte, 128<<10)
	signed := oem.Sign(dynaplat.Package{App: "Brake", Version: 2, Image: image})

	masters := []*dynaplat.MasterECU{
		{Name: "CPM", CPUMHz: 400, CryptoHW: true, Alive: true},
	}
	pool := dynaplat.NewMasterPool(s, trust, masters)
	psk := []byte("zone-trust-relationship-key")
	pool.Enroll("Zone", psk)

	direct := dynaplat.VerifyCost(len(image), 50, false)
	fmt.Printf("direct verification on the 50MHz zone ECU would take %v\n", direct)

	verified := false
	pool.VerifyFor("Zone", signed, func(f dynaplat.Forwarded, err error) {
		if err != nil {
			log.Fatalf("package rejected: %v", err)
		}
		if err := dynaplat.CheckForwarded(f, psk); err != nil {
			log.Fatalf("weak-ECU MAC check failed: %v", err)
		}
		verified = true
		fmt.Printf("update master verified the package at t=%v; zone MAC check costs %v\n",
			s.Kernel.Now(), dynaplat.MACCost(len(image), 50, false))
	})

	// --- §3.2: staged runtime update while the brake keeps running.
	if err := s.StartAll(); err != nil {
		log.Fatal(err)
	}
	s.Node("CPM").Store().Put("Brake", "calibration", []byte("k=1.07"))

	mgr := dynaplat.NewUpdateManager(s)
	newSpec := dynaplat.App{Name: "Brake", Kind: s.App("Brake").Spec.Kind,
		ASIL: s.App("Brake").Spec.ASIL, Period: 10 * dynaplat.Millisecond,
		WCET: 2 * dynaplat.Millisecond, Deadline: 10 * dynaplat.Millisecond,
		MemoryKB: 256, Version: 2}

	old := s.App("Brake") // capture before phase 4 uninstalls it
	var report dynaplat.UpdateReport
	s.Kernel.At(dynaplat.Time(500*dynaplat.Millisecond), func() {
		if !verified {
			log.Fatal("package not verified before install")
		}
		err := mgr.Staged("Brake", newSpec, dynaplat.Behavior{},
			[]dynaplat.UpdateOffers{{Iface: "BrakeStatus",
				Opts: dynaplat.OfferOpts{Network: "Backbone"}}},
			0, nil, func(r dynaplat.UpdateReport) { report = r })
		if err != nil {
			log.Fatal(err)
		}
	})

	s.Run(2 * dynaplat.Second)

	cur := s.App("Brake@2") // the updated instance
	if cur == nil {
		log.Fatal("update did not complete")
	}
	fmt.Printf("\nstaged update v%d→v%d:\n", report.From, report.To)
	for _, st := range report.Stamps {
		fmt.Printf("  %-14s %v .. %v\n", st.Phase, st.Start, st.End)
	}
	fmt.Printf("downtime: %v   state keys synced: %d   peak memory: %dKB\n",
		report.Downtime, report.SyncedKeys, report.PeakMemoryKB)
	total := cur.Activations
	if old != nil {
		total += old.Activations
	}
	fmt.Printf("control coverage: %d activations over 200 periods, %d misses\n",
		total, cur.Misses)
	if v, ok := s.Node("CPM").Store().Get("Brake@2", "calibration"); ok {
		fmt.Printf("calibration survived the update: %s\n", v)
	}
}
