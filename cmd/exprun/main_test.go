package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd drives run() the way main would and captures both streams.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestWorkerCountResolution(t *testing.T) {
	cases := []struct {
		workers int
		want    int
		wantErr bool
	}{
		{workers: 0, want: -1}, // GOMAXPROCS (checked as ≥1)
		{workers: 1, want: 1},
		{workers: 4, want: 4},
		{workers: -3, wantErr: true},
	}
	for _, c := range cases {
		got, err := workerCount(c.workers)
		if c.wantErr {
			if err == nil {
				t.Errorf("workerCount(%d) accepted, want error", c.workers)
			}
			continue
		}
		if err != nil {
			t.Errorf("workerCount(%d): %v", c.workers, err)
			continue
		}
		if c.want == -1 {
			if got < 1 {
				t.Errorf("workerCount(%d) = %d, want ≥ 1", c.workers, got)
			}
		} else if got != c.want {
			t.Errorf("workerCount(%d) = %d, want %d", c.workers, got, c.want)
		}
	}
}

// TestSerialFlagHonored: -workers 1 runs one experiment at a time, and
// the pool size has no second knob: -parallel is an unknown flag, a
// usage error.
func TestSerialFlagHonored(t *testing.T) {
	code, out, _ := runCmd("-workers", "1", "E1")
	if code != 0 {
		t.Fatalf("serial run exit %d", code)
	}
	if !strings.Contains(out, "E1") {
		t.Errorf("serial run produced no E1 table:\n%s", out)
	}

	code, _, errOut := runCmd("-parallel=false", "E1")
	if code != 2 {
		t.Fatalf("-parallel=false exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "-parallel") {
		t.Errorf("unknown flag not explained: %s", errOut)
	}
}

// TestWorkersImpliesParallel: a pool of workers, sized explicitly or by
// default, matches the serial rendering byte for byte.
func TestWorkersImpliesParallel(t *testing.T) {
	ids := []string{"E1", "E2", "E4"}
	code, serial, _ := runCmd(append([]string{"-workers", "1"}, ids...)...)
	if code != 0 {
		t.Fatalf("serial exit %d", code)
	}
	code, par, _ := runCmd(append([]string{"-workers", "3"}, ids...)...)
	if code != 0 {
		t.Fatalf("-workers 3 exit %d", code)
	}
	if serial != par {
		t.Error("-workers 3 rendering differs from serial run")
	}
	code, def, _ := runCmd(ids...)
	if code != 0 {
		t.Fatalf("default pool exit %d", code)
	}
	if serial != def {
		t.Error("default pool rendering differs from serial run")
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	code, _, errOut := runCmd("-workers=-2", "E1")
	if code != 2 {
		t.Fatalf("negative workers exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "must be ≥ 0") {
		t.Errorf("negative workers not explained: %s", errOut)
	}
}

func TestListAndUnknownID(t *testing.T) {
	code, out, _ := runCmd("-list")
	if code != 0 || !strings.Contains(out, "E23") {
		t.Errorf("-list exit %d, output missing E23:\n%s", code, out)
	}
	if strings.Contains(out, "observable") {
		t.Errorf("-list still marks experiments observable:\n%s", out)
	}
	code, _, errOut := runCmd("E9999")
	if code != 2 || !strings.Contains(errOut, "E9999") {
		t.Errorf("unknown id: exit %d, stderr %q", code, errOut)
	}
}

// TestObservedRunAnyExperiment: -trace/-metrics observe every kernel
// experiment, not only the vehicle-built sweeps. E2's kernel trace
// (SOA offers, CAN frames) must reach the Chrome trace, and its kernel
// gauges the metrics dump.
func TestObservedRunAnyExperiment(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.txt")
	code, out, errOut := runCmd("-trace", tracePath, "-metrics", metricsPath, "E2")
	if code != 0 {
		t.Fatalf("observed E2 exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "metrics: 1 scopes") {
		t.Errorf("summary missing the E2 scope:\n%s", out)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"process_name","args":{"name":"E2"}`) ||
		!strings.Contains(string(trace), `"ph":"i"`) {
		t.Errorf("trace has no E2 kernel events:\n%.400s", trace)
	}
	// E2 builds its TSN and CAN buses and its middleware by hand on the
	// observed kernel: they record frames and publications with no
	// wiring of their own.
	if !strings.Contains(string(trace), `"thread_name","args":{"name":"net:`) ||
		!strings.Contains(string(trace), `"cat":"net","name":"frame"`) {
		t.Errorf("trace has no E2 frame spans on a net: track:\n%.400s", trace)
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# scope E2\n", "kernel_fired", "net_frames_enqueued", "soa_publishes"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics dump lacks %q:\n%s", want, metrics)
		}
	}
}
