package platform

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dynaplat/internal/sim"
)

// refSharedCPU is the original shared-mode queue: one list re-sorted by
// (prio, seq) on every dispatch. It is kept as the reference for the
// two-FIFO queue.
type refSharedCPU struct {
	k         *sim.Kernel
	busyUntil sim.Time
	q         []*refQueuedJob
	seq       uint64
}

type refQueuedJob struct {
	prio   int // 0 = deterministic (served first), 1 = background
	exec   sim.Duration
	seq    uint64
	onDone func(started, finished sim.Time)
}

func (c *refSharedCPU) enqueue(j *refQueuedJob) {
	j.seq = c.seq
	c.seq++
	c.q = append(c.q, j)
	c.serve()
}

func (c *refSharedCPU) serve() {
	if len(c.q) == 0 || c.k.Now() < c.busyUntil {
		return
	}
	sort.SliceStable(c.q, func(i, k int) bool {
		if c.q[i].prio != c.q[k].prio {
			return c.q[i].prio < c.q[k].prio
		}
		return c.q[i].seq < c.q[k].seq
	})
	j := c.q[0]
	c.q = c.q[1:]
	started := c.k.Now()
	finished := started.Add(j.exec)
	c.busyUntil = finished
	c.k.At(finished, func() {
		j.onDone(started, finished)
		c.serve()
	})
}

// sharedArrival is one job handed to the shared CPU at a given time.
type sharedArrival struct {
	at   sim.Time
	da   bool
	exec sim.Duration
}

// randomArrivals draws a mix of DA and NDA jobs on a 100 µs grid, so
// many arrive at one instant, at about twice the CPU's capacity, so most
// arrive while the CPU is busy. The first job is a long NDA job.
func randomArrivals(r *sim.RNG, n int) []sharedArrival {
	out := []sharedArrival{{at: 0, exec: ms(3)}}
	for i := 1; i < n; i++ {
		out = append(out, sharedArrival{
			at:   sim.Time(sim.Duration(r.Intn(n)) * 100 * sim.Microsecond),
			da:   r.Bool(0.5),
			exec: sim.Duration(r.Range(50, 350)) * sim.Microsecond,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// TestSharedOrderMatchesReference runs the same arrivals through a
// shared-mode node and through the original sorted queue, and compares
// which job each CPU run served and when it finished.
func TestSharedOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		arrivals := randomArrivals(sim.NewRNG(seed), 200)

		k := sim.NewKernel(1)
		n := NewNode(k, rtosECU("cpm"), ModeShared, 0)
		da, _ := n.Install(daApp("d", ms(10), ms(2)), Behavior{})
		nda, _ := n.Install(ndaApp("bg"), Behavior{})
		var got []string
		n.OnComplete(func(c Completion) { got = append(got, fmt.Sprintf("%d@%v", c.Job, c.Finished)) })
		for id, a := range arrivals {
			id, a := id, a
			k.At(a.at, func() {
				if a.da {
					n.runDA(da, int64(id), a.exec, k.Now(), k.Now().Add(sim.Second))
					return
				}
				n.runNDA(nda, a.exec, func() { got = append(got, fmt.Sprintf("%d@%v", id, k.Now())) })
			})
		}
		k.Run()

		rk := sim.NewKernel(1)
		ref := &refSharedCPU{k: rk}
		var want []string
		for id, a := range arrivals {
			id, a := id, a
			rk.At(a.at, func() {
				prio := 1
				if a.da {
					prio = 0
				}
				ref.enqueue(&refQueuedJob{prio: prio, exec: a.exec,
					onDone: func(_, finished sim.Time) { want = append(want, fmt.Sprintf("%d@%v", id, finished)) }})
			})
		}
		rk.Run()

		if len(want) != len(arrivals) {
			t.Fatalf("seed %d: reference served %d of %d jobs", seed, len(want), len(arrivals))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: shared CPU served\n%v\nreference\n%v", seed, got, want)
		}
	}
}

// TestSharedDispatchAllocs counts every allocation while a warm
// shared-mode node runs a DA app for 8192 periods: the job records are
// pooled, so a DA job allocates nothing.
func TestSharedDispatchAllocs(t *testing.T) {
	const periods = 8192
	k := sim.NewKernel(1)
	n := NewNode(k, rtosECU("cpm"), ModeShared, 0)
	inst, err := n.Install(daApp("brake", ms(10), ms(2)), Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(64 * ms(10)))
	before := inst.Activations
	// AllocsPerRun runs the function once to warm up, then once measured.
	a := testing.AllocsPerRun(1, func() {
		k.RunUntil(k.Now().Add(periods * ms(10)))
	})
	if got := inst.Activations - before; got != 2*periods {
		t.Fatalf("activations = %d, want %d", got, 2*periods)
	}
	if a != 0 {
		t.Errorf("%d warm DA jobs: %v allocs, want 0", periods, a)
	}
}

// TestFindAppAllocFree: looking an app up across nodes allocates nothing.
func TestFindAppAllocFree(t *testing.T) {
	p := New(sim.NewKernel(1), nil)
	for _, ecu := range []string{"zc", "cpm", "adas", "body"} {
		n, err := p.AddNode(rtosECU(ecu), ModeIsolated, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Install(ndaApp("app-"+ecu), Behavior{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Nodes(); !reflect.DeepEqual(got, []string{"adas", "body", "cpm", "zc"}) {
		t.Fatalf("Nodes() = %v, want sorted names", got)
	}
	if _, n := p.FindApp("app-zc"); n == nil || n.ECU().Name != "zc" {
		t.Fatalf("FindApp(app-zc) found node %v", n)
	}
	for _, name := range []string{"app-zc", "missing"} {
		if a := testing.AllocsPerRun(100, func() { p.FindApp(name) }); a != 0 {
			t.Errorf("FindApp(%q): %v allocs, want 0", name, a)
		}
	}
}
