package faults

import (
	"fmt"
	"testing"

	"dynaplat/internal/can"
	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/platform"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/tsn"
)

func ms(n int64) sim.Duration { return sim.Duration(n) * sim.Millisecond }

// Node must satisfy the campaign's control surface.
var _ Target = (*platform.Node)(nil)

// fakeTarget records the calls a campaign makes.
type fakeTarget struct {
	name              string
	crashes, restores int
	hangs, slowdowns  int
	hung              bool
	slow              float64
}

func (f *fakeTarget) Crash() []string {
	f.crashes++
	return []string{f.name + ".app"}
}
func (f *fakeTarget) Restore([]string) { f.restores++ }
func (f *fakeTarget) SetHung(h bool) {
	f.hung = h
	if h {
		f.hangs++
	}
}
func (f *fakeTarget) SetSlowdown(factor float64) {
	f.slow = factor
	if factor > 1 {
		f.slowdowns++
	}
}

// runCampaign builds a three-target campaign on a fresh kernel, runs it
// to completion and returns its rendered schedule and log.
func runCampaign(seed uint64, perturbKernelRNG bool) (schedule, log string, injections int) {
	k := sim.NewKernel(99)
	if perturbKernelRNG {
		// Unrelated subsystems drawing from the kernel RNG must not
		// shift the campaign's schedule.
		t := k.Every(0, ms(1), func() { k.RNG().Float64() })
		defer t.Stop()
	}
	c := NewCampaign(k, DefaultSpec(seed))
	for _, n := range []string{"cpmA", "cpmB", "cpmC"} {
		c.AddTarget(n, &fakeTarget{name: n})
	}
	c.Start()
	k.RunUntil(sim.Time(15 * sim.Second))
	return fmt.Sprintf("%+v", c.Schedule), fmt.Sprintf("%+v", c.Log), c.Injections()
}

func TestCampaignDeterministicPerSeed(t *testing.T) {
	s1, l1, n1 := runCampaign(42, false)
	s2, l2, n2 := runCampaign(42, true) // kernel-RNG noise must not matter
	if n1 == 0 {
		t.Fatal("campaign scheduled no injections")
	}
	if s1 != s2 {
		t.Errorf("schedules diverge per seed:\n%s\nvs\n%s", s1, s2)
	}
	if l1 != l2 {
		t.Errorf("logs diverge per seed:\n%s\nvs\n%s", l1, l2)
	}
	if n1 != n2 {
		t.Errorf("injections %d vs %d", n1, n2)
	}
	s3, _, _ := runCampaign(43, false)
	if s1 == s3 {
		t.Error("different seeds produced identical schedules")
	}
}

func TestCampaignRepairsAndBusyTargets(t *testing.T) {
	k := sim.NewKernel(7)
	spec := DefaultSpec(11)
	spec.MTBF = 200 * sim.Millisecond // dense: forces busy-target skips
	c := NewCampaign(k, spec)
	tgt := &fakeTarget{name: "solo"}
	c.AddTarget("solo", tgt)
	c.Start()
	k.RunUntil(sim.Time(20 * sim.Second))
	if c.Injections() == 0 {
		t.Fatal("no injections")
	}
	if c.Skipped == 0 {
		t.Error("dense single-target campaign skipped nothing")
	}
	// Every crash/reboot must have been repaired by the run's end.
	if tgt.crashes != tgt.restores {
		t.Errorf("crashes %d != restores %d", tgt.crashes, tgt.restores)
	}
	if tgt.hung {
		t.Error("target left hung after horizon + repairs")
	}
	if c.ActiveFaults() != 0 {
		t.Errorf("active faults at end = %d", c.ActiveFaults())
	}
	// Log pairs every inject with a repair (no permanent faults in the
	// default spec).
	inj, rep := 0, 0
	for _, r := range c.Log {
		if r.Phase == PhaseInject {
			inj++
		} else {
			rep++
		}
	}
	if inj != rep {
		t.Errorf("log injects %d != repairs %d", inj, rep)
	}
}

// campaignPlatform builds two ECUs each running one 10 ms ASIL-D task.
func campaignPlatform(t *testing.T, k *sim.Kernel) *platform.Platform {
	t.Helper()
	p := platform.New(k, nil)
	for _, name := range []string{"cpmA", "cpmB"} {
		node, err := p.AddNode(model.ECU{Name: name, CPUMHz: model.ReferenceMHz,
			MemoryKB: 1024, HasMMU: true, OS: model.OSRTOS}, platform.ModeIsolated, ms(1)/2)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := node.Install(model.App{Name: "task@" + name,
			Kind: model.Deterministic, ASIL: model.ASILD,
			Period: ms(10), WCET: ms(2), Deadline: ms(10), MemoryKB: 64},
			platform.Behavior{})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestCampaignDrivesPlatformNodes(t *testing.T) {
	k := sim.NewKernel(3)
	p := campaignPlatform(t, k)
	spec := Spec{
		Seed:       5,
		Horizon:    3 * sim.Second,
		MTBF:       300 * sim.Millisecond,
		RepairMean: 100 * sim.Millisecond,
		Weights:    Weights{Crash: 1},
	}
	c := NewCampaign(k, spec)
	for _, ecu := range p.Nodes() {
		c.AddTarget(ecu, p.Node(ecu))
	}
	c.Start()
	k.RunUntil(sim.Time(10 * sim.Second))
	if c.Injections() < 3 {
		t.Fatalf("only %d injections", c.Injections())
	}
	// After horizon + repair tail, every node is healthy and every app
	// was restarted by its repair.
	for _, ecu := range p.Nodes() {
		node := p.Node(ecu)
		if node.Health() != platform.HealthUp {
			t.Errorf("node %s health = %v at end", ecu, node.Health())
		}
		for _, app := range node.Apps() {
			if node.App(app).State != platform.StateRunning {
				t.Errorf("app %s not restarted after repair", app)
			}
		}
	}
}

func TestHangPausesExecutionAndResumes(t *testing.T) {
	k := sim.NewKernel(1)
	p := campaignPlatform(t, k)
	node := p.Node("cpmA")
	inst := node.App("task@cpmA")
	k.At(sim.Time(ms(100)), func() { node.SetHung(true) })
	k.At(sim.Time(ms(200)), func() { node.SetHung(false) })
	k.RunUntil(sim.Time(ms(300)))
	// 30 periods; ~10 of them hung. App state still reads running (the
	// hang holds resources), but ~10 activations are missing.
	if inst.State != platform.StateRunning {
		t.Fatalf("state = %v (hang must not stop the app)", inst.State)
	}
	if inst.Activations < 18 || inst.Activations > 22 {
		t.Errorf("activations = %d, want ~20 (30 minus hung window)", inst.Activations)
	}
}

func TestSlowdownBreaksDeadlines(t *testing.T) {
	k := sim.NewKernel(1)
	p := campaignPlatform(t, k)
	node := p.Node("cpmA")
	inst := node.App("task@cpmA")
	k.RunUntil(sim.Time(ms(100)))
	if inst.Misses != 0 {
		t.Fatalf("misses before slowdown = %d", inst.Misses)
	}
	node.SetSlowdown(10) // 2 ms WCET -> 20 ms > 10 ms deadline
	k.RunUntil(sim.Time(ms(200)))
	if inst.Misses == 0 {
		t.Error("x10 slowdown produced no deadline misses")
	}
	node.SetSlowdown(1)
	// The backlog accumulated during the slow window drains first; after
	// that, misses must stop.
	k.RunUntil(sim.Time(ms(400)))
	drained := inst.Misses
	k.RunUntil(sim.Time(ms(600)))
	if inst.Misses != drained {
		t.Errorf("misses kept accumulating after slowdown cleared and backlog drained: %d -> %d",
			drained, inst.Misses)
	}
}

// netRig wraps a TSN backbone in the fault interceptor with a counting
// receiver on dst.
type netRig struct {
	k   *sim.Kernel
	nf  *NetFaults
	got int
}

func newNetRig(t *testing.T, cfg NetConfig) *netRig {
	t.Helper()
	k := sim.NewKernel(17)
	inner := tsn.New(k, tsn.DefaultConfig("backbone"))
	r := &netRig{k: k, nf: WrapNetwork(k, inner, cfg)}
	r.nf.Attach("src", func(network.Delivery) {})
	r.nf.Attach("dst", func(network.Delivery) { r.got++ })
	return r
}

func (r *netRig) send(n int, payload func(i int) any) {
	for i := 0; i < n; i++ {
		i := i
		r.k.At(sim.Time(i)*sim.Time(ms(1)), func() {
			var p any
			if payload != nil {
				p = payload(i)
			}
			r.nf.Send(network.Message{ID: 0x10, Src: "src", Dst: "dst",
				Class: network.ClassPriority, Bytes: 64, Payload: p})
		})
	}
}

func TestNetFaultsLoss(t *testing.T) {
	r := newNetRig(t, NetConfig{LossRate: 0.2})
	const sent = 1000
	r.send(sent, nil)
	r.k.Run()
	if r.nf.FramesDropped == 0 {
		t.Fatal("loss injection inert")
	}
	if got := int(r.nf.FramesDropped) + r.got; got != sent {
		t.Errorf("dropped %d + delivered %d != sent %d", r.nf.FramesDropped, r.got, sent)
	}
	// ~200 expected; bound loosely (deterministic per seed anyway).
	if r.nf.FramesDropped < 120 || r.nf.FramesDropped > 280 {
		t.Errorf("dropped = %d, want ~200", r.nf.FramesDropped)
	}
}

// TestNetFaultsCorruptionCaughtByE2E asserts the contract E21 relies on:
// every corrupted protected frame is caught by the E2E check (single-byte
// flips never pass CRC32), so caught + silent == FramesCorrupted with
// silent == 0 when everything is protected.
func TestNetFaultsCorruptionCaughtByE2E(t *testing.T) {
	k := sim.NewKernel(23)
	inner := tsn.New(k, tsn.DefaultConfig("backbone"))
	nf := WrapNetwork(k, inner, NetConfig{CorruptRate: 0.15})
	tx := &soa.E2ESender{DataID: 9}
	rx := &soa.E2EReceiver{DataID: 9}
	nf.Attach("src", func(network.Delivery) {})
	caught := 0
	nf.Attach("dst", func(d network.Delivery) {
		st, _ := rx.Check(d.Msg.Payload.([]byte))
		if st == soa.E2EWrongCRC || st == soa.E2EWrongID {
			caught++
		}
	})
	const sent = 800
	for i := 0; i < sent; i++ {
		i := i
		k.At(sim.Time(i)*sim.Time(ms(1)), func() {
			nf.Send(network.Message{ID: 0x20, Src: "src", Dst: "dst",
				Class: network.ClassPriority, Bytes: 32,
				Payload: tx.Protect([]byte{byte(i), byte(i >> 8)})})
		})
	}
	k.Run()
	if nf.FramesCorrupted == 0 {
		t.Fatal("corruption injection inert")
	}
	if int64(caught) != nf.FramesCorrupted {
		t.Errorf("E2E caught %d of %d corrupted frames", caught, nf.FramesCorrupted)
	}
	// Opaque (non-[]byte) payloads cannot be bit-flipped: corruption
	// degrades to a drop and is counted separately.
	r := newNetRig(t, NetConfig{CorruptRate: 0.5})
	r.send(200, func(i int) any { return i })
	r.k.Run()
	if r.nf.CorruptDropped == 0 {
		t.Fatal("opaque-payload corruption not counted")
	}
	if r.nf.FramesCorrupted != 0 {
		t.Errorf("opaque payloads reported as bit-flipped: %d", r.nf.FramesCorrupted)
	}
	if int(r.nf.CorruptDropped)+r.got != 200 {
		t.Errorf("corrupt-dropped %d + delivered %d != 200", r.nf.CorruptDropped, r.got)
	}
}

func TestNetFaultsPartition(t *testing.T) {
	r := newNetRig(t, NetConfig{})
	r.nf.Partition("src")
	r.send(10, nil)
	r.k.At(sim.Time(ms(50)), func() { r.nf.Heal("src") })
	// Second burst after the heal.
	for i := 0; i < 10; i++ {
		i := i
		r.k.At(sim.Time(ms(60+int64(i))), func() {
			r.nf.Send(network.Message{ID: 0x10, Src: "src", Dst: "dst",
				Class: network.ClassPriority, Bytes: 64})
			_ = i
		})
	}
	r.k.Run()
	if r.nf.FramesBlocked != 10 {
		t.Errorf("blocked = %d, want 10", r.nf.FramesBlocked)
	}
	if r.got != 10 {
		t.Errorf("delivered = %d, want 10 (post-heal burst only)", r.got)
	}
	if r.nf.Partitioned("src") {
		t.Error("src still partitioned after Heal")
	}
}

func TestNetFaultsBabble(t *testing.T) {
	r := newNetRig(t, NetConfig{})
	b := r.nf.StartBabble("idiot", 0x7FF, network.ClassBulk, 1400, ms(1))
	r.k.At(sim.Time(ms(100)), func() { b.Stop() })
	r.send(10, nil)
	r.k.RunUntil(sim.Time(ms(300)))
	if r.nf.BabbleFrames < 90 || r.nf.BabbleFrames > 110 {
		t.Errorf("babble frames = %d, want ~100", r.nf.BabbleFrames)
	}
	if r.got != 10 {
		t.Errorf("legit frames delivered = %d, want 10 (babble must not eat them)", r.got)
	}
}

// TestWrappedSendAllocFree pins the fault layer's pass-through: once
// warm, a frame through a fault-free NetFaults over CAN allocates
// nothing (Send's message must not be moved to the heap for the rare
// tap call on a dropped frame).
func TestWrappedSendAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	nf := WrapNetwork(k, can.New(k, can.Config{Name: "body", BitsPerSecond: 500_000}), NetConfig{})
	n := 0
	nf.Attach("a", func(network.Delivery) {})
	nf.Attach("z", func(network.Delivery) { n++ })
	msg := network.Message{ID: 0x100, Src: "a", Dst: "z", Bytes: 8}
	send := func() {
		nf.Send(msg)
		k.Run()
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if a := testing.AllocsPerRun(200, send); a != 0 {
		t.Errorf("warm wrapped send→deliver: %v allocs/op, want 0", a)
	}
	if n != 64+201 {
		t.Errorf("delivered %d frames, want %d", n, 64+201)
	}
}
