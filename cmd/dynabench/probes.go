package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dynaplat/internal/dse"
	"dynaplat/internal/experiments"
	"dynaplat/internal/fleet"
	"dynaplat/internal/fuzz"
	"dynaplat/internal/model"
	"dynaplat/internal/sched"
	"dynaplat/internal/sim"
)

// perCall returns the median wall seconds of one fn call over seven
// batches, each long enough (≥ 2ms) for the clock to resolve it.
func perCall(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= 2*time.Millisecond {
			break
		}
		n *= 2
	}
	xs := make([]float64, 7)
	for b := range xs {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		xs[b] = time.Since(t0).Seconds() / float64(n)
	}
	return median(xs)
}

// withCalibration runs fn between two calibration loops and returns the
// factor that turns its wall seconds into reference-machine seconds.
func withCalibration(fn func() error) (float64, error) {
	before := calibrate()
	err := fn()
	return calibrated(1, before, calibrate()), err
}

// probeLayers times single public calls of the model, sched, dse and sim
// layers. It runs on every workload's traced run: the inputs are fixed
// (the greedy placement of E11's 38-app instance for the seed, and a
// kernel of 1024 periodic tickers), so the figures isolate each layer's
// per-call cost from the workload around it.
func probeLayers(seed uint64, m metrics) error {
	big := e11Big(seed)
	w := dse.DefaultWeights()
	g := dse.Greedy(big.sys, w)
	if !g.Feasible {
		return fmt.Errorf("%s: no feasible greedy placement to probe", big.label)
	}
	sys := big.sys.Clone()
	sys.Placement = g.Placement
	var tasksets [][]sched.Task
	for _, e := range sys.ECUs {
		var ts []sched.Task
		for _, a := range sys.AppsOn(e.Name) {
			if a.Kind == model.Deterministic {
				ts = append(ts, sched.Task{Name: a.Name, Period: a.Period,
					WCET: e.ScaledWCET(a.WCET), Deadline: a.Deadline, Jitter: a.Jitter})
			}
		}
		if len(ts) > 0 {
			tasksets = append(tasksets, ts)
		}
	}
	var evaluate, validate, rta, appsOn, event float64
	scale, err := withCalibration(func() error {
		evaluate = perCall(func() { dse.Evaluate(sys, w) })
		validate = perCall(func() { model.Validate(sys) })
		rta = perCall(func() {
			for _, ts := range tasksets {
				_, _, _ = sched.ResponseTimeAnalysis(ts)
			}
		})
		appsOn = perCall(func() {
			for _, e := range sys.ECUs {
				sys.AppsOn(e.Name)
			}
		}) / float64(len(sys.ECUs))
		xs := make([]float64, 5)
		for i := range xs {
			xs[i] = kernelNsPerEvent()
		}
		event = median(xs)
		return nil
	})
	m["dse.evaluate_us"] = evaluate * scale * 1e6
	m["model.validate_us"] = validate * scale * 1e6
	m["sched.rta_us"] = rta * scale * 1e6
	m["model.apps_on_ns"] = appsOn * scale * 1e9
	m["sim.ns_per_event"] = event * scale
	return err
}

// kernelNsPerEvent runs 1024 staggered 1ms tickers for one virtual
// second on a fresh kernel and returns wall nanoseconds per fired event.
func kernelNsPerEvent() float64 {
	k := sim.NewKernel(1)
	tickers := make([]*sim.Ticker, 1024)
	fired := 0
	for i := range tickers {
		tickers[i] = k.Every(sim.Time(i)*sim.Time(sim.Microsecond/2), sim.Millisecond, func() { fired++ })
	}
	t0 := time.Now()
	k.RunUntil(sim.Time(sim.Second))
	wall := time.Since(t0)
	for _, t := range tickers {
		t.Stop()
	}
	return float64(wall.Nanoseconds()) / float64(k.Stats().Fired)
}

// observedCounters maps the obs metrics-dump series summed into the
// observed-run work counters onto their per-layer metric names.
var observedCounters = map[string]string{
	"kernel_fired":         "sim.events",
	"net_frames_delivered": "net.frames",
	"soa_deliveries":       "soa.deliveries",
	"mesh_offered":         "mesh.offered",
	"plat_jobs":            "plat.jobs",
	"reconfig_moves":       "reconfig.moves",
}

// observedIDs are the experiments with an observed runner.
var observedIDs = []string{"E21", "E22", "E24"}

// probeSimSuite re-runs the observable experiments plain and fully
// observed, back to back. The observed runs' metrics dumps give exact
// work counters per layer; the wall times give the observation overhead
// and the kernel's event rate.
func probeSimSuite(_ uint64, _ []timedPass, m metrics) error {
	var plain, observed float64
	scale, err := withCalibration(func() error {
		for _, id := range observedIDs {
			t0 := time.Now()
			if _, err := experiments.Run(id); err != nil {
				return err
			}
			t1 := time.Now()
			r, err := experiments.RunObserved(id)
			if err != nil {
				return err
			}
			plain += t1.Sub(t0).Seconds()
			observed += time.Since(t1).Seconds()
			var sb strings.Builder
			if err := r.WriteMetrics(&sb); err != nil {
				return err
			}
			if err := sumCounters(sb.String(), m); err != nil {
				return fmt.Errorf("%s metrics dump: %v", id, err)
			}
		}
		return nil
	})
	m["obs.overhead"] = observed / plain
	m["sim.events_per_s"] = m["sim.events"] / (plain * scale)
	return err
}

// sumCounters adds the values of the dump's "counter" and "gauge" lines
// named in observedCounters to m.
func sumCounters(dump string, m metrics) error {
	sc := bufio.NewScanner(strings.NewReader(dump))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || (f[0] != "counter" && f[0] != "gauge") {
			continue
		}
		name, _, _ := strings.Cut(f[1], "{")
		metric, ok := observedCounters[name]
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return err
		}
		m[metric] += float64(v)
	}
	return sc.Err()
}

// fleetProbeVehicles is how many vehicles the fleet probe runs serially:
// 1000 samples put ten beyond p99.
const fleetProbeVehicles = 1000

// probeFleet runs the campaign's first vehicles one by one on this
// goroutine, giving the per-vehicle latency the sharded campaign hides,
// and from it the worker pool's efficiency: serial vehicle time for the
// whole fleet over workers × campaign wall time.
func probeFleet(seed uint64, passes []timedPass, m metrics) error {
	cfg := fleetConfig(seed, fleetVehicles, 0.1)
	secs := make([]float64, fleetProbeVehicles)
	scale, err := withCalibration(func() error {
		for i := range secs {
			t0 := time.Now()
			fleet.RunVehicle(cfg.FleetSeed, i, cfg.Update)
			secs[i] = time.Since(t0).Seconds()
		}
		return nil
	})
	for i := range secs {
		secs[i] *= scale
	}
	m["fleet.vehicle_ms_p50"] = median(secs) * 1e3
	p99, _ := tailPercentile(secs, 99)
	m["fleet.vehicle_ms_p99"] = p99 * 1e3
	m["par.efficiency"] = mean(secs) * float64(cfg.Vehicles) / (float64(cfg.Workers) * median(passSeconds(passes)))
	return err
}

// probeFuzz times scenario generation, which the fuzz workload does in
// set-up, and reads the per-seed oracle latencies off the timed passes.
func probeFuzz(seed uint64, passes []timedPass, m metrics) error {
	seeds := fuzzSeedRange(seed)
	var gen float64
	scale, err := withCalibration(func() error {
		gen = perCall(func() {
			for _, s := range seeds {
				fuzz.Generate(s)
			}
		}) / float64(len(seeds))
		return nil
	})
	m["fuzz.generate_us"] = gen * scale * 1e6
	var lat []float64
	for _, p := range passes {
		for _, s := range p.opSecs {
			lat = append(lat, s*p.scale)
		}
	}
	m["fuzz.check_ms"] = mean(lat) * 1e3
	m["fuzz.seed_ms_p50"] = median(lat) * 1e3
	p99, _ := tailPercentile(lat, 99)
	m["fuzz.seed_ms_p99"] = p99 * 1e3
	return err
}
