// Command dynabench measures dynaplat end to end and layer by layer. One
// process runs one named workload: it builds the workload's inputs from
// a seed, times passes of calls into the public layer APIs (dse,
// experiments, fleet, fuzz), checks every output, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	dynabench -workload fleet -seed 1 -seconds 18 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// nothing but a clock around the passes. With -trace 1 the same passes
// are followed by CPU-profiled passes, whose samples `go tool pprof
// -traces` attributes to layers, and by timed single-layer probes; the
// metrics are then the per-layer ones. README.md lists every workload
// and metric.
//
// Exit status: 0 when every op succeeded, 1 when one failed or an
// output did not match, 2 on a usage error.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metrics holds measured values by metric name.
type metrics map[string]float64

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"pass_s", "s"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run. A metric that belongs to
// one workload's calls reads 0 on a workload that makes no such call.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{"cpu." + l, "%"})
	}
	return append(defs, []metricDef{
		{"cpu.samples", "count"},
		{"alloc_mb_per_pass", "MiB"},
		{"allocs_per_pass", "count"},
		{"gc_cycles_per_pass", "count"},
		{"trace_overhead", "ratio"},
		{"par.efficiency", "ratio"},
		{"dse.evaluations", "count"},
		{"dse.evaluate_us", "us"},
		{"model.validate_us", "us"},
		{"model.apps_on_ns", "ns"},
		{"sched.rta_us", "us"},
		{"dse.exhaustive_s", "s"},
		{"dse.pareto_s", "s"},
		{"dse.greedy_s", "s"},
		{"dse.anneal_s", "s"},
		{"exp.E1_s", "s"},
		{"exp.E3_s", "s"},
		{"exp.E4_s", "s"},
		{"exp.E13_s", "s"},
		{"exp.E15_s", "s"},
		{"exp.E21_s", "s"},
		{"exp.E22_s", "s"},
		{"exp.E24_s", "s"},
		{"exp.rest_s", "s"},
		{"sim.events", "count"},
		{"net.frames", "count"},
		{"soa.deliveries", "count"},
		{"mesh.offered", "count"},
		{"plat.jobs", "count"},
		{"reconfig.moves", "count"},
		{"sim.events_per_s", "1/s"},
		{"obs.overhead", "ratio"},
		{"sim.ns_per_event", "ns"},
		{"fleet.vehicle_ms_p50", "ms"},
		{"fleet.vehicle_ms_p99", "ms"},
		{"fleet.shipped", "count"},
		{"fleet.rolled_back", "count"},
		{"fuzz.generate_us", "us"},
		{"fuzz.check_ms", "ms"},
		{"fuzz.seed_ms_p50", "ms"},
		{"fuzz.seed_ms_p99", "ms"},
	}...)
}()

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("dynabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; 1 reproduces the paper experiments' own instances")
	seconds := fs.Float64("seconds", 18, "wall seconds the timed passes may take (each workload makes a few passes at least)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "dynabench-profiles"), "directory for a traced run's CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for _, w := range workloads() {
		if w.name == *name {
			wl = &w
		}
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "dynabench: unexpected arguments %v\n", fs.Args())
		return 2
	case wl == nil:
		fmt.Fprintf(stderr, "dynabench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "dynabench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case !(*seconds > 0):
		fmt.Fprintf(stderr, "dynabench: -seconds must be positive\n")
		return 2
	}
	// fleet and fuzz run two workers, as their CLIs do on this 2-vCPU
	// class of machine; nothing else in the process competes for CPU.
	runtime.GOMAXPROCS(2)

	r, err := measure(*wl, *seed, *seconds, *trace == 1, *out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "dynabench: %v\n", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := report(stdout, r, defs); err != nil {
		fmt.Fprintf(stderr, "dynabench: %v\n", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// timedPass is one measured pass: its record, raw wall seconds, the
// factor that converts them to reference-machine seconds, and (in a
// traced run) the allocator's activity during it.
type timedPass struct {
	*pass
	wall, scale                float64
	allocBytes, mallocs, gcRun float64
}

func (t timedPass) secs() float64 { return t.wall * t.scale }

func passSeconds(ps []timedPass) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.secs()
	}
	return xs
}

// runResult is what one run reports.
type runResult struct {
	attempted, failed int
	metrics           metrics
	info              []string
}

// measure runs the workload: set-up, one untimed warm-up pass, timed
// passes for the given seconds and then, untraced, timed set-ups or,
// traced, the profiled passes and probes.
func measure(wl workload, seed uint64, seconds float64, traced bool, profDir string, stderr io.Writer) (runResult, error) {
	var r runResult
	runPass := wl.setup(seed)
	warm := newPass()
	t0 := time.Now()
	runPass(warm)
	warmWall := time.Since(t0).Seconds()
	r.tally(warm, "", stderr)
	if seed == 1 {
		for _, problem := range checkGolden(wl.name, warm.golden) {
			r.failed++
			fmt.Fprintf(stderr, "dynabench: %s: %s\n", wl.name, problem)
		}
	}

	// A traced run gives half its time to the untraced passes and the rest
	// to profiled passes and probes, so that it lasts about as long.
	if traced {
		seconds /= 2
	}
	passes := timePasses(runPass, seconds, wl.minPasses, traced)
	for _, p := range passes {
		r.tally(p.pass, warm.digest(), stderr)
	}
	secs := passSeconds(passes)
	passS := quantile(secs, 0.25)
	var walls, cals []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		cals = append(cals, calRef/p.scale)
	}
	r.info = append(r.info,
		fmt.Sprintf("workload %s seed %d: %d timed passes after a %.3fs warm-up, %d ops per pass",
			wl.name, seed, len(passes), warmWall, warm.ops),
		fmt.Sprintf("info pass_s lower-quartile=%.4f median=%.4f q3=%.4f (calibrated s); raw wall lower-quartile=%.4f median=%.4f s; calibration loop median=%.4f s (reference %.4f s)",
			passS, median(secs), quantile(secs, 0.75), quantile(walls, 0.25), median(walls), median(cals), calRef))
	r.info = append(r.info, throughputInfo(wl.name, passS, passes)...)

	if !traced {
		r.metrics = metrics{"pass_s": passS, "setup_s": measureSetup(wl, seed)}
		return r, nil
	}
	m, profiled, err := traceMetrics(wl, seed, runPass, passes, profDir)
	for _, p := range profiled {
		r.tally(p.pass, warm.digest(), stderr)
	}
	if err != nil {
		return r, err
	}
	r.metrics = m
	r.info = append(r.info, fmt.Sprintf("layer CPU shares (%d samples):", int64(m["cpu.samples"])))
	r.info = append(r.info, strings.Split(strings.TrimRight(layerTable(m), "\n"), "\n")...)
	return r, nil
}

// tally adds a pass's ops and failures to the run, and one more failure
// when the pass's output digest differs from the warm-up's.
func (r *runResult) tally(p *pass, warmDigest string, stderr io.Writer) {
	r.attempted += p.ops
	r.failed += p.failed
	for _, problem := range p.problems {
		fmt.Fprintf(stderr, "dynabench: failed op: %s\n", problem)
	}
	if warmDigest != "" && p.digest() != warmDigest {
		r.failed++
		fmt.Fprintf(stderr, "dynabench: pass digest %s differs from the warm-up's %s\n", p.digest(), warmDigest)
	}
}

// measureSetup times the workload's set-up: fifteen batches of set-ups,
// each repeating set-up until it lasts 10ms or more, between two
// calibration loops. It returns the median calibrated seconds of one
// set-up. It runs after the timed passes, on a warm heap, so that the
// page faults of a fresh process do not swamp a set-up of microseconds.
func measureSetup(wl workload, seed uint64) float64 {
	before := calibrate()
	batch := func(n int) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			wl.setup(seed)
		}
		return time.Since(t0).Seconds()
	}
	n := 1
	for batch(n) < 10e-3 {
		n *= 2
	}
	xs := make([]float64, 15)
	for i := range xs {
		xs[i] = batch(n) / float64(n)
	}
	return calibrated(median(xs), before, calibrate())
}

// timePasses runs timed passes, each between two calibration loops,
// until the next pass would end after the given seconds, but at least
// minPasses. withMem also records the allocator's activity per pass.
func timePasses(runPass func(*pass), seconds float64, minPasses int, withMem bool) []timedPass {
	var out []timedPass
	start := time.Now()
	cal := calibrate()
	for {
		var ms0, ms1 runtime.MemStats
		if withMem {
			runtime.ReadMemStats(&ms0)
		}
		p := newPass()
		t0 := time.Now()
		runPass(p)
		wall := time.Since(t0).Seconds()
		if withMem {
			runtime.ReadMemStats(&ms1)
		}
		next := calibrate()
		out = append(out, timedPass{
			pass: p, wall: wall, scale: calibrated(1, cal, next),
			allocBytes: float64(ms1.TotalAlloc - ms0.TotalAlloc),
			mallocs:    float64(ms1.Mallocs - ms0.Mallocs),
			gcRun:      float64(ms1.NumGC - ms0.NumGC),
		})
		cal = next
		elapsed := time.Since(start).Seconds()
		if len(out) >= minPasses && elapsed+wall+next > seconds {
			return out
		}
	}
}

// A traced run profiles at least two passes and at least
// minProfiledSeconds of them, at profileHz rather than the default
// 100 Hz, so that every workload collects over a thousand samples and a
// 1% share rests on ten or more of them.
const (
	profileHz          = 500
	minProfiledSeconds = 4
)

// traceMetrics computes the per-layer metrics: per-call times, work
// counters and allocator activity of the untraced passes, CPU shares of
// the profiled passes, and the probes.
func traceMetrics(wl workload, seed uint64, runPass func(*pass), passes []timedPass, dir string) (metrics, []timedPass, error) {
	m := metrics{}
	var alloc, mallocs, gcs, eff []float64
	for _, p := range passes {
		alloc = append(alloc, p.allocBytes/(1<<20))
		mallocs = append(mallocs, p.mallocs)
		gcs = append(gcs, p.gcRun)
		eff = append(eff, p.busy/(float64(wl.workers)*p.wall))
	}
	m["alloc_mb_per_pass"] = median(alloc)
	m["allocs_per_pass"] = median(mallocs)
	m["gc_cycles_per_pass"] = median(gcs)
	m["par.efficiency"] = median(eff)
	for _, d := range perLayer {
		if _, ok := passes[0].calls[d.name]; ok {
			xs := make([]float64, len(passes))
			for i, p := range passes {
				xs[i] = p.calls[d.name] * p.scale
			}
			m[d.name] = median(xs)
		}
		if v, ok := passes[0].counts[d.name]; ok {
			m[d.name] = v
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return m, nil, err
	}
	var profiled []timedPass
	var files []string
	cal := calibrate()
	for i, profiledWall := 0, 0.0; i < 2 || profiledWall < minProfiledSeconds; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.pprof", wl.name, i))
		p, wall, err := profilePass(runPass, path)
		if err != nil {
			return m, profiled, err
		}
		next := calibrate()
		profiled = append(profiled, timedPass{pass: p, wall: wall, scale: calibrated(1, cal, next)})
		files = append(files, path)
		cal = next
		profiledWall += wall
	}
	counts, samples, err := layerSamples(files)
	if err != nil {
		return m, profiled, err
	}
	addShares(m, counts, samples)
	m["cpu.samples"] = float64(samples)
	m["trace_overhead"] = quantile(passSeconds(profiled), 0.25) / quantile(passSeconds(passes), 0.25)

	if err := probeLayers(seed, m); err != nil {
		return m, profiled, err
	}
	if wl.probe != nil {
		if err := wl.probe(seed, passes, m); err != nil {
			return m, profiled, err
		}
	}
	return m, profiled, nil
}

// profilePass runs one pass under the CPU profiler, writing the profile
// to path, and returns the pass and its wall seconds.
func profilePass(runPass func(*pass), path string) (*pass, float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	// Setting the rate first makes StartCPUProfile keep it (it prints a
	// warning that it cannot set its own 100 Hz); there is no other way
	// to raise the rate with the standard library.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, 0, err
	}
	p := newPass()
	t0 := time.Now()
	runPass(p)
	wall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	return p, wall, f.Close()
}

// throughputInfo prints the workload's own throughput units beside
// pass_s: vehicles per minute for fleet, seeds per second and per-seed
// latency for fuzz.
func throughputInfo(name string, passS float64, passes []timedPass) []string {
	switch name {
	case "fleet":
		return []string{fmt.Sprintf("info vehicles_per_min=%.1f", fleetVehicles*60/passS)}
	case "fuzz":
		var lat []float64
		for _, p := range passes {
			for _, s := range p.opSecs {
				lat = append(lat, s*p.scale*1e3)
			}
		}
		p99, ok := tailPercentile(lat, 99)
		tail := fmt.Sprintf("seed_ms_p99=%.3f", p99)
		if !ok {
			tail = "seed_ms_p99 not reported (fewer than 10 samples beyond it)"
		}
		return []string{fmt.Sprintf("info seeds_per_s=%.2f seed_ms_p50=%.3f %s over %d seeds",
			fuzzSeeds/passS, median(lat), tail, len(lat))}
	}
	return nil
}

//go:embed testdata/golden.txt
var goldenFile string

// checkGolden compares a seed-1 pass's pinned lines with the workload's
// lines in testdata/golden.txt and returns one problem per line that
// differs.
func checkGolden(name string, got []string) []string {
	var want []string
	for _, line := range strings.Split(goldenFile, "\n") {
		if strings.HasPrefix(line, name+" ") {
			want = append(want, line)
		}
	}
	var problems []string
	for i := 0; i < max(len(want), len(got)); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			problems = append(problems, fmt.Sprintf("golden line %d: want %q, got %q", i+1, w, g))
		}
	}
	return problems
}

// report prints every metric by name with its unit, then the result
// object as the last line.
func report(w io.Writer, r runResult, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, line := range r.info {
		fmt.Fprintln(w, line)
	}
	for _, d := range defs {
		v := finite(r.metrics[d.name])
		fmt.Fprintf(w, "metric %-22s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// finite replaces NaN and ±Inf, which JSON cannot carry, by 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
