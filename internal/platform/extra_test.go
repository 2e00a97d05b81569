package platform

import (
	"testing"

	"dynaplat/internal/sim"
)

func TestMissRate(t *testing.T) {
	a := &AppInstance{}
	if a.MissRate() != 0 {
		t.Error("empty miss rate != 0")
	}
	a.Activations = 10
	a.Misses = 3
	if a.MissRate() != 0.3 {
		t.Errorf("miss rate = %v", a.MissRate())
	}
}

func TestNDAJobsBeforeFirstTable(t *testing.T) {
	// A node with only NDAs has no schedule table: jobs run back to back.
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, 0)
	nda, _ := n.Install(ndaApp("only"), Behavior{})
	nda.Start()
	var done []sim.Time
	for i := 0; i < 3; i++ {
		nda.Submit(ms(5), func() { done = append(done, k.Now()) })
	}
	k.Run()
	want := []sim.Time{sim.Time(ms(5)), sim.Time(ms(10)), sim.Time(ms(15))}
	if len(done) != 3 {
		t.Fatalf("done = %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("done = %v, want %v", done, want)
		}
	}
	if n.Utilization() != 0 || n.Table() != nil {
		t.Error("NDA-only node should have no table")
	}
}

func TestNDASequencingAcrossSubmitters(t *testing.T) {
	// Two NDA apps share the gap CPU FIFO: completions honor submit
	// order and never overlap.
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1))
	da, _ := n.Install(daApp("ctl", ms(10), ms(5)), Behavior{})
	a, _ := n.Install(ndaApp("a"), Behavior{})
	b, _ := n.Install(ndaApp("b"), Behavior{})
	da.Start()
	a.Start()
	b.Start()
	var order []string
	a.Submit(ms(3), func() { order = append(order, "a1") })
	b.Submit(ms(3), func() { order = append(order, "b1") })
	a.Submit(ms(3), func() { order = append(order, "a2") })
	k.RunUntil(sim.Time(ms(100)))
	if len(order) != 3 || order[0] != "a1" || order[1] != "b1" || order[2] != "a2" {
		t.Errorf("order = %v", order)
	}
	// 9ms of NDA work into 5ms gaps per 10ms period: finishes within
	// period 2, and the DA never misses.
	if da.Misses != 0 {
		t.Errorf("da misses = %d", da.Misses)
	}
	if a.JobsDone != 2 || b.JobsDone != 1 {
		t.Errorf("jobs a=%d b=%d", a.JobsDone, b.JobsDone)
	}
	if a.JobLatency.Count() != 2 {
		t.Errorf("latency samples = %d", a.JobLatency.Count())
	}
}

func TestPlatformAddNodeDuplicate(t *testing.T) {
	k := sim.NewKernel(1)
	p := New(k, nil)
	if _, err := p.AddNode(rtosECU("x"), ModeIsolated, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddNode(rtosECU("x"), ModeIsolated, 0); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestBehaviorExecClamping(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1)/4)
	inst, _ := n.Install(daApp("d", ms(10), ms(2)), Behavior{
		// Pathological behavior: negative and over-WCET samples must be
		// clamped into (0, WCET].
		ExecTime: func(r *sim.RNG) sim.Duration {
			if r.Bool(0.5) {
				return -ms(5)
			}
			return ms(50)
		},
	})
	inst.Start()
	k.RunUntil(sim.Time(ms(500)))
	if inst.Misses != 0 {
		t.Errorf("misses = %d", inst.Misses)
	}
	if max := inst.Response.MaxDuration(); max > ms(2) {
		t.Errorf("max response %v exceeds WCET", max)
	}
}

func TestDoubleStartAndStopIdempotent(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1))
	inst, _ := n.Install(daApp("d", ms(10), ms(1)), Behavior{})
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err == nil {
		t.Error("double start accepted")
	}
	inst.Stop()
	inst.Stop() // no-op
	if inst.State != StateStopped {
		t.Errorf("state = %v", inst.State)
	}
}

func TestResourceHoldSerialization(t *testing.T) {
	// Total service time = sum of holds; QueueLen drains.
	k := sim.NewKernel(1)
	r := NewResource(k, "flash")
	var last sim.Time
	for i := 0; i < 4; i++ {
		r.AcquireBulk(ms(3), nil)
	}
	r.AcquireUrgent(ms(1), func() { last = k.Now() })
	if r.QueueLen() == 0 {
		t.Error("queue empty while busy")
	}
	k.Run()
	// Urgent granted after the in-service bulk hold (3ms), preempting
	// the remaining bulk queue.
	if last != sim.Time(ms(3)) {
		t.Errorf("urgent granted at %v, want 3ms", last)
	}
	if r.Served != 5 || r.QueueLen() != 0 {
		t.Errorf("served=%d queue=%d", r.Served, r.QueueLen())
	}
}

func TestColocateUnknownApp(t *testing.T) {
	m := NewMemoryManager(1024, true)
	m.NewDomain("a", 10)
	if err := m.Colocate("a", "ghost"); err == nil {
		t.Error("colocate with unknown app accepted")
	}
	if err := m.Colocate("ghost", "a"); err == nil {
		t.Error("colocate from unknown app accepted")
	}
	if m.InjectWildWrite("ghost") != nil {
		t.Error("wild write from unknown app hit something")
	}
}

func TestCPUTimeAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeIsolated, ms(1))
	da, _ := n.Install(daApp("d", ms(10), ms(2)), Behavior{})
	nda, _ := n.Install(ndaApp("n"), Behavior{})
	da.Start()
	nda.Start()
	nda.Submit(ms(7), nil)
	// Stop mid-period so the release at t=100ms doesn't add an 11th
	// accounting entry.
	k.RunUntil(sim.Time(ms(95)))
	// 10 activations × 2ms exact WCET.
	if da.CPUTime != ms(20) {
		t.Errorf("DA CPU time = %v, want 20ms", da.CPUTime)
	}
	if nda.CPUTime != ms(7) {
		t.Errorf("NDA CPU time = %v, want 7ms", nda.CPUTime)
	}
}
