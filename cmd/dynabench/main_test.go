package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"dynaplat/internal/model"
	"dynaplat/internal/sim"
	gen "dynaplat/internal/workload"
)

func TestAttributeFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts, total, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	if total != 40 {
		t.Fatalf("total = %d, want the header's 40", total)
	}
	want := map[string]int64{
		"model":   12, // runtime map access charged to its caller, not to dse
		"obs":     6,  // allocation under an inlined obs frame
		"sim":     5,
		"gc":      5, // gcBgMarkWorker and bgsweep
		"fleet":   3, // safety/update belongs to the fleet layer
		"harness": 2, // workload.Fleet reached from the benchmark's own code
		"other":   7, // security (unlisted module), sha256 under main, the idle scheduler
	}
	for _, l := range layers {
		if counts[l] != want[l] {
			t.Errorf("layer %s: %d samples, want %d", l, counts[l], want[l])
		}
	}
	shares := metrics{}
	addShares(shares, counts, total)
	sum := 0.0
	for _, l := range layers {
		sum += shares["cpu."+l]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%", sum)
	}
	const table = `sim        12.50%
net         0.00%
soa         0.00%
platform    0.00%
sched       0.00%
model      30.00%
dse         0.00%
obs        15.00%
faults      0.00%
reconfig    0.00%
fleet       7.50%
fuzz        0.00%
harness     5.00%
gc         12.50%
other      17.50%
`
	for i := 0; i < 2; i++ {
		if got := layerTable(shares); got != table {
			t.Fatalf("layer table:\n%s\nwant:\n%s", got, table)
		}
	}
}

func TestAttributeRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"",
		"-----------+---\n   x   runtime.main\n",
		"-----------+---\n   12\n",
	} {
		if _, _, err := attribute(strings.NewReader(in)); err == nil {
			t.Errorf("attribute(%q) accepted malformed input", in)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	// Python: statistics.quantiles(range(1, 11), n=4, method="inclusive")
	// == [3.25, 5.5, 7.75].
	for _, c := range []struct{ q, want float64 }{{0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {0, 1}, {1, 10}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{4, 2}, 0.25); got != 2.5 {
		t.Errorf("lower quartile of two passes = %v, want 2.5", got)
	}
	if quantile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("quantile of zero or one sample")
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := tailPercentile(xs, 99); ok {
		t.Error("p99 reported from 999 samples, fewer than 10 beyond it")
	}
	xs = append(xs, 999)
	v, ok := tailPercentile(xs, 99)
	if !ok || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989.01, true", v, ok)
	}
	if _, ok := tailPercentile(xs[:200], 95); !ok {
		t.Error("p95 of 200 samples has 10 beyond it")
	}
}

func TestCalibratedSeconds(t *testing.T) {
	// A pass of 2s between loops of 0.2s and 0.3s ran on a machine whose
	// loop takes 0.25s; on the reference machine it takes 2 × calRef/0.25.
	if got, want := calibrated(2, 0.2, 0.3), 2*calRef/0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("calibrated = %v, want %v", got, want)
	}
	if got := calibrated(1, calRef, calRef); math.Abs(got-1) > 1e-12 {
		t.Errorf("reference machine: factor %v, want 1", got)
	}
}

// TestSeedOneIsExperimentInstances pins the seed mapping: seed 1 builds
// exactly the instances the paper experiments build from their literal
// generator seeds (E11 in e11_e15.go, E20 in e16_e20.go, E23 in e23.go).
func TestSeedOneIsExperimentInstances(t *testing.T) {
	same := func(label string, got *model.System, want *model.System) {
		t.Helper()
		if model.Format(got) != model.Format(want) {
			t.Errorf("%s: seed-1 instance differs from the experiment's", label)
		}
	}
	insts := e11Instances(1)
	for i, c := range []struct{ rngSeed, nECU, nCtl int }{{124, 3, 4}, {186, 3, 6}, {248, 4, 8}} {
		same(insts[i].label, insts[i].sys, gen.Fleet(sim.NewRNG(uint64(c.rngSeed)), c.nECU, c.nCtl, 0, 1, 0.6))
	}
	big := e11Big(1)
	same(big.label, big.sys, gen.Fleet(sim.NewRNG(97), 6, 30, 4, 4, 2.0))
	e20 := e20Instance(1)
	same(e20.label, e20.sys, gen.Fleet(sim.NewRNG(53), 4, 8, 0, 1, 1.0))
	if got := fleetConfig(1, 250, 0.15).FleetSeed; got != 0xE23<<8|1 {
		t.Errorf("fleet seed 1 = %#x, want E23's fault-level-1 fleet seed %#x", got, 0xE23<<8|1)
	}
	if r := fuzzSeedRange(1); r[0] != 1 || r[len(r)-1] != fuzzSeeds {
		t.Errorf("fuzz seed 1 covers %d..%d, want 1..%d", r[0], r[len(r)-1], fuzzSeeds)
	}

	if model.Format(e11Instances(2)[2].sys) == model.Format(insts[2].sys) {
		t.Error("seed 2 kept seed 1's ECU and app order")
	}
	if fuzzSeedRange(2)[0] != fuzzSeeds+1 || fleetConfig(2, 1, 0).FleetSeed == fleetConfig(1, 1, 0).FleetSeed {
		t.Error("seed 2 reuses seed 1's fuzz seeds or fleet")
	}
}

func TestCheckGolden(t *testing.T) {
	want := checkGoldenLines(t, "fleet")
	if len(want) != 1 {
		t.Fatalf("golden.txt has %d fleet lines, want 1", len(want))
	}
	if p := checkGolden("fleet", want); len(p) != 0 {
		t.Errorf("matching lines reported: %v", p)
	}
	if p := checkGolden("fleet", []string{"fleet render=0"}); len(p) != 1 {
		t.Errorf("one wrong line gave %d problems", len(p))
	}
	if p := checkGolden("fleet", append(want, "fleet extra")); len(p) != 1 {
		t.Errorf("one extra line gave %d problems", len(p))
	}
}

func checkGoldenLines(t *testing.T, name string) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(goldenFile, "\n") {
		if strings.HasPrefix(line, name+" ") {
			out = append(out, line)
		}
	}
	return out
}

func TestPassOpCountsFailures(t *testing.T) {
	p := newPass()
	p.op("ok", func() error { return nil })
	p.op("err", func() error { return errors.New("boom") })
	p.op("panic", func() error { panic("bang") })
	if p.ops != 3 || p.failed != 2 || len(p.problems) != 2 {
		t.Errorf("ops=%d failed=%d problems=%v", p.ops, p.failed, p.problems)
	}
	q := newPass()
	q.record("a")
	if p.digest() == q.digest() {
		t.Error("digest ignores recorded lines")
	}
}

func TestSumCounters(t *testing.T) {
	dump := `# scope E21/0-none/none
counter net_frames_delivered{layer=network,ecu=,iface=backbone} 5500
counter net_frames_lost{layer=network,ecu=,iface=backbone} 0
counter soa_deliveries{layer=soa,ecu=cpmA,iface=da.state} 3000
gauge kernel_fired{layer=sim,ecu=,iface=} 24252
hist plat_response{layer=platform,ecu=cpmA,iface=da} count=3000 sum=1500ms
# scope E21/0-none/redundancy
gauge kernel_fired{layer=sim,ecu=,iface=} 39254
`
	m := metrics{}
	if err := sumCounters(dump, m); err != nil {
		t.Fatal(err)
	}
	want := metrics{"net.frames": 5500, "soa.deliveries": 3000, "sim.events": 63506}
	if len(m) != len(want) {
		t.Errorf("got %v, want %v", m, want)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestReportLastLine(t *testing.T) {
	var sb strings.Builder
	r := runResult{attempted: 4, failed: 1, metrics: metrics{"pass_s": 1.25, "setup_s": math.NaN()},
		info: []string{"info line"}}
	if err := report(&sb, r, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	var got struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if got.Correct || got.Attempted != 4 || got.Failed != 1 || len(got.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", got)
	}
	if got.Metrics["pass_s"]["value"] != 1.25 || got.Metrics["pass_s"]["unit"] != "s" {
		t.Errorf("pass_s = %v", got.Metrics["pass_s"])
	}
	if !strings.Contains(sb.String(), "metric setup_s") {
		t.Error("metrics not printed by name before the result line")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fleet", "-trace", "2"},
		{"-workload", "fleet", "-seconds", "0"},
		{"-workload", "fleet", "extra"},
		{"-bogus"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and no result", args, code, out.String())
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the workloads and metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this checkout: %v", err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if strings.Join(names, " ") != strings.Join(have, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, have)
	}
	check := func(kind string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
