package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// layers lists the per-layer CPU shares in report order: the repository's
// internal modules grouped as the paper's architecture layers, then the
// garbage collector's background workers and everything else.
var layers = []string{
	"sim", "net", "soa", "platform", "sched", "model", "dse", "obs",
	"faults", "reconfig", "fleet", "fuzz", "harness", "gc", "other",
}

// layerOf maps an internal module (the first path element below
// dynaplat/internal/) to its layer. Modules not listed here, such as
// security, xil and clocksync, count as "other".
var layerOf = map[string]string{
	"sim": "sim",
	"can": "net", "tsn": "net", "flexray": "net", "gateway": "net", "network": "net",
	"soa":      "soa",
	"platform": "platform", "admission": "platform",
	"sched":    "sched",
	"model":    "model",
	"dse":      "dse",
	"obs":      "obs",
	"faults":   "faults",
	"reconfig": "reconfig",
	"fleet":    "fleet", "safety": "fleet", "par": "fleet",
	"fuzz":        "fuzz",
	"experiments": "harness", "workload": "harness",
}

// gcWorkers are the runtime's background collector goroutines; a sample
// under one of them is charged to "gc" because no repository frame
// caused it directly.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

const repoPrefix = "dynaplat/internal/"

// layerOfStack charges one sampled stack, innermost frame first, to a
// layer: "gc" under a background collector, otherwise the layer of the
// innermost repository frame, so that runtime map, allocation and
// memequal time lands on the layer whose code called it.
func layerOfStack(frames []string) string {
	for _, f := range frames {
		for _, w := range gcWorkers {
			if strings.HasPrefix(f, w) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, repoPrefix)
		if !ok {
			continue
		}
		mod := rest
		if i := strings.IndexAny(mod, "/."); i >= 0 {
			mod = mod[:i]
		}
		if l, ok := layerOf[mod]; ok {
			return l
		}
		return "other"
	}
	return "other"
}

// attribute reads the text `go tool pprof -traces -sample_index=samples`
// prints and returns the sample count charged to each layer and the
// total. Each trace is a separator line, then "<count> <leaf frame>",
// then one caller frame per line.
func attribute(r io.Reader) (map[string]int64, int64, error) {
	counts := map[string]int64{}
	var total, n int64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			counts[layerOfStack(frames)] += n
			total += n
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			if len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: malformed trace head %q", line)
			}
			v, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("pprof traces: sample count in %q: %v", line, err)
			}
			n = v
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof traces: no samples")
	}
	return counts, total, nil
}

// layerSamples runs `go tool pprof -traces` over the CPU profiles and
// returns the samples charged to each layer and their total.
func layerSamples(profiles []string) (map[string]int64, int64, error) {
	args := append([]string{"tool", "pprof", "-traces", "-sample_index=samples"}, profiles...)
	cmd := exec.Command("go", args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return attribute(strings.NewReader(string(out)))
}

// addShares sets the cpu.<layer> metrics: each layer's share of the
// samples in percent.
func addShares(m metrics, counts map[string]int64, total int64) {
	for _, l := range layers {
		m["cpu."+l] = 100 * float64(counts[l]) / float64(total)
	}
}

// layerTable renders the cpu.<layer> metrics in layer order, one
// "layer percent" line each.
func layerTable(m metrics) string {
	var sb strings.Builder
	for _, l := range layers {
		fmt.Fprintf(&sb, "%-9s %6.2f%%\n", l, m["cpu."+l])
	}
	return sb.String()
}
