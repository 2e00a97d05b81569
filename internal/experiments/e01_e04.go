package experiments

import (
	"fmt"

	"dynaplat/internal/can"
	"dynaplat/internal/model"
	"dynaplat/internal/network"
	"dynaplat/internal/obs"
	"dynaplat/internal/platform"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
	"dynaplat/internal/tsn"
	"dynaplat/internal/workload"
)

func init() {
	register("E1", runE1)
	register("E2", runE2)
	register("E4", runE4)
}

// E1 — Figure 2 / Section 3.1 "CPU": deterministic applications on the
// dynamic platform keep their deadlines regardless of NDA load; on a
// conventional shared scheduler they do not.
func runE1(env *obs.Env) *Table {
	t := &Table{
		ID: "E1", Title: "Mixed-criticality CPU isolation",
		Source:  "Fig. 2, §3.1",
		Columns: []string{"nda-load", "mode", "da-miss-rate", "da-p100-resp", "nda-jobs-done"},
		Expectation: "isolated DA miss rate stays 0 at every NDA load; " +
			"shared misses grow with load",
	}
	type outcome struct {
		miss  float64
		jobs  int64
		worst sim.Duration
	}
	run := func(mode platform.Mode, loadFrac float64, seed uint64) outcome {
		k := env.Kernel(fmt.Sprintf("E1/%.0f%%/%s", loadFrac*100, mode), seed)
		node := platform.NewNode(k, model.ECU{Name: "cpm", CPUMHz: 100, MemoryKB: 8192,
			HasMMU: true, OS: model.OSRTOS}, mode, 250*sim.Microsecond)
		rng := sim.NewRNG(seed + 100)
		var das []*platform.AppInstance
		for _, task := range workload.ControlTasks(rng, 5, 0.5) {
			app := model.App{Name: task.Name, Kind: model.Deterministic, ASIL: model.ASILD,
				Period: task.Period, WCET: task.WCET, Deadline: task.Period, MemoryKB: 64}
			inst, err := node.Install(app, platform.Behavior{})
			if err != nil {
				panic(err)
			}
			inst.Start()
			das = append(das, inst)
		}
		nda, _ := node.Install(model.App{Name: "info", Kind: model.NonDeterministic,
			MemoryKB: 1024}, platform.Behavior{})
		nda.Start()
		if loadFrac > 0 {
			// Mean job 5ms; inter-arrival tuned to the requested load.
			mean := sim.Duration(float64(5*sim.Millisecond) / loadFrac)
			src := &workload.BurstSource{}
			src.Start(k, rng.Split(), mean, 2*sim.Millisecond, 8*sim.Millisecond,
				func(d sim.Duration) { nda.Submit(d, nil) })
		}
		k.RunUntil(sim.Time(5 * sim.Second))
		var acts, misses int64
		var worst sim.Duration
		for _, d := range das {
			acts += d.Activations
			misses += d.Misses
			if r := d.Response.MaxDuration(); r > worst {
				worst = r
			}
		}
		return outcome{miss: float64(misses) / float64(acts), jobs: nda.JobsDone, worst: worst}
	}
	loads := []float64{0, 0.25, 0.5, 1.0, 2.0}
	modes := []platform.Mode{platform.ModeIsolated, platform.ModeShared}
	cells := sweep(env, len(loads)*len(modes), func(i int) outcome {
		return run(modes[i%len(modes)], loads[i/len(modes)], 42)
	})
	t.Holds = true
	sharedEverMissed := false
	for li, load := range loads {
		for mi, mode := range modes {
			o := cells[li*len(modes)+mi]
			t.AddRow(fmt.Sprintf("%.0f%%", load*100), mode.String(),
				pct(o.miss), o.worst.String(), itoa(o.jobs))
			if mode == platform.ModeIsolated && o.miss > 0 {
				t.Holds = false
			}
			if mode == platform.ModeShared && o.miss > 0 {
				sharedEverMissed = true
			}
		}
	}
	if !sharedEverMissed {
		t.Holds = false
	}
	return t
}

// E2 — Figure 3 / Section 2.1: the three communication paradigms behave
// per their contracts on the SOA middleware.
func runE2(env *obs.Env) *Table {
	t := &Table{
		ID: "E2", Title: "Communication paradigms (Event / Message / Stream)",
		Source:  "Fig. 3, §2.1",
		Columns: []string{"paradigm", "network", "mean-latency", "p100-latency", "jitter", "notes"},
		Expectation: "event latency ≪ RPC round trip; stream inter-frame " +
			"jitter near zero on TSN; CAN segments large payloads",
	}
	k := env.Kernel("E2", 7)
	net := tsn.New(k, tsn.DefaultConfig("bb"))
	bus := can.New(k, can.Config{Name: "body", BitsPerSecond: 500_000})
	mw := soa.New(k, nil)
	mw.AddNetwork(net, 1400)
	mw.AddNetwork(bus, can.MaxPayload)

	prod := mw.Endpoint("ctl", "ecu1")
	srv := mw.Endpoint("srv", "ecu1")
	cam := mw.Endpoint("cam", "ecu1")
	cons := mw.Endpoint("dash", "ecu2")

	prod.Offer("Status", soa.OfferOpts{Network: "bb", Class: network.ClassPriority})
	prod.Offer("StatusCAN", soa.OfferOpts{Network: "body", Class: network.ClassPriority})
	srv.Offer("Cmd", soa.OfferOpts{Network: "bb", Class: network.ClassPriority,
		Handler: func(any) (int, any, sim.Duration) { return 16, nil, 200 * sim.Microsecond }})
	cam.Offer("Video", soa.OfferOpts{Network: "bb", Class: network.ClassBulk})

	var evLat, rpcLat sim.Stats
	cons.Subscribe("Status", func(ev soa.Event) { evLat.AddDuration(ev.Latency()) })
	cons.Subscribe("StatusCAN", func(soa.Event) {})
	rx := &soa.StreamReceiver{KeyInterval: 30}
	cons.Subscribe("Video", rx.Consume)

	st := cam.OpenStream("Video", 30)
	k.Every(0, 10*sim.Millisecond, func() {
		prod.Publish("Status", 8, nil)
		prod.Publish("StatusCAN", 8, nil)
		cons.Call("Cmd", 32, nil, func(ev soa.Event) { rpcLat.AddDuration(ev.Latency()) })
	})
	k.Every(0, 33*sim.Millisecond, func() { st.SendFrame(1200, nil) })
	k.RunUntil(sim.Time(5 * sim.Second))

	canLat := mw.ServiceLatency("StatusCAN")
	t.AddRow("event", "tsn", sim.Duration(evLat.Mean()).String(),
		evLat.MaxDuration().String(), evLat.Jitter().String(), "pub/sub")
	t.AddRow("event", "can", sim.Duration(canLat.Mean()).String(),
		canLat.MaxDuration().String(), canLat.Jitter().String(),
		"25B wire → 4 frames")
	t.AddRow("message", "tsn", sim.Duration(rpcLat.Mean()).String(),
		rpcLat.MaxDuration().String(), rpcLat.Jitter().String(), "RPC round trip")
	t.AddRow("stream", "tsn", sim.Duration(rx.InterFrame.Mean()).String(),
		rx.InterFrame.MaxDuration().String(), rx.InterFrame.Jitter().String(),
		fmt.Sprintf("frames=%d stalls=%d", rx.Frames, rx.Stalled))

	t.Holds = evLat.Mean() < rpcLat.Mean() && // one-way beats round trip
		rx.Stalled == 0 &&
		canLat.Mean() > evLat.Mean() // 500kbps CAN slower than 100Mbps TSN
	return t
}

// E4 — Section 3.1 "Hardware Access & Communication": an urgent DA
// transmission must not be delayed by an NDA bulk stream.
func runE4(env *obs.Env) *Table {
	t := &Table{
		ID: "E4", Title: "Urgent DA transmission under NDA stream load",
		Source:  "§3.1 HW access & communication",
		Columns: []string{"network", "bulk-load", "urgent-p100", "urgent-jitter"},
		Expectation: "CAN bounds urgent delay to one max frame; gated TSN is " +
			"fully load-independent (at the cost of waiting for its window); " +
			"ungated TSN degrades under load by up to one MTU frame",
	}

	urgentOverCAN := func(flood int) (sim.Duration, sim.Duration) {
		k := env.Kernel(fmt.Sprintf("E4/can/flood=%d", flood), 3)
		bus := can.New(k, can.Config{Name: "b", BitsPerSecond: 500_000, WorstCaseStuffing: true})
		var lat sim.Stats
		bus.Attach("da", func(network.Delivery) {})
		bus.Attach("nda", func(network.Delivery) {})
		bus.Attach("sink", func(d network.Delivery) {
			if d.Msg.ID == 0x10 {
				lat.AddDuration(d.Latency())
			}
		})
		if flood > 0 {
			k.Every(0, 2*sim.Millisecond, func() {
				for i := 0; i < flood; i++ {
					bus.Send(network.Message{ID: 0x700 + uint32(i), Src: "nda",
						Dst: "sink", Bytes: 8})
				}
			})
		}
		k.Every(sim.Time(500*sim.Microsecond), 10*sim.Millisecond, func() {
			bus.Send(network.Message{ID: 0x10, Src: "da", Dst: "sink", Bytes: 2})
		})
		k.RunUntil(sim.Time(2 * sim.Second))
		return lat.MaxDuration(), lat.Jitter()
	}

	urgentOverTSN := func(gated bool, floodFrames int) (sim.Duration, sim.Duration) {
		k := env.Kernel(fmt.Sprintf("E4/tsn/gated=%v/flood=%d", gated, floodFrames), 3)
		cfg := tsn.DefaultConfig("bb")
		if gated {
			cfg.GCL = tsn.ControlGCL(100*sim.Microsecond, 900*sim.Microsecond)
		}
		net := tsn.New(k, cfg)
		var lat sim.Stats
		net.Attach("da", func(network.Delivery) {})
		net.Attach("nda", func(network.Delivery) {})
		net.Attach("sink", func(d network.Delivery) {
			if d.Msg.Class == network.ClassControl {
				lat.AddDuration(d.Latency())
			}
		})
		if floodFrames > 0 {
			k.Every(0, sim.Millisecond, func() {
				for i := 0; i < floodFrames; i++ {
					net.Send(network.Message{Class: network.ClassBulk, Src: "nda",
						Dst: "sink", Bytes: 1500})
				}
			})
		}
		k.Every(sim.Time(250*sim.Microsecond), 10*sim.Millisecond, func() {
			net.Send(network.Message{Class: network.ClassControl, Src: "da",
				Dst: "sink", Bytes: 16})
		})
		k.RunUntil(sim.Time(2 * sim.Second))
		return lat.MaxDuration(), lat.Jitter()
	}

	canQuiet, _ := urgentOverCAN(0)
	canLoaded, canJit := urgentOverCAN(4)
	t.AddRow("can", "none", canQuiet.String(), "0s")
	t.AddRow("can", "80%", canLoaded.String(), canJit.String())

	plainQuiet, _ := urgentOverTSN(false, 0)
	plainLoaded, plainJit := urgentOverTSN(false, 8)
	t.AddRow("tsn-priority", "none", plainQuiet.String(), "0s")
	t.AddRow("tsn-priority", "~100%", plainLoaded.String(), plainJit.String())

	gatedQuiet, _ := urgentOverTSN(true, 0)
	gatedLoaded, gatedJit := urgentOverTSN(true, 8)
	t.AddRow("tsn-gated", "none", gatedQuiet.String(), "0s")
	t.AddRow("tsn-gated", "~100%", gatedLoaded.String(), gatedJit.String())

	// CAN blocking bounded by one max frame (135 bits at 500k = 270us)
	// above quiet; gated TSN exactly insensitive to load; ungated TSN
	// degrades (priority alone cannot remove the in-flight MTU frame).
	maxFrame := sim.Duration(270 * sim.Microsecond)
	mtuFrame := network.TxTime(1542, 100_000_000)
	t.Holds = canLoaded <= canQuiet+maxFrame &&
		gatedLoaded == gatedQuiet &&
		plainLoaded > plainQuiet &&
		plainLoaded <= plainQuiet+mtuFrame
	return t
}
