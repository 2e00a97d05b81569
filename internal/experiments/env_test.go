package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dynaplat/internal/obs"
)

// envTraceCap bounds each kernel's retained trace records in the arms
// below; a cap drops records but never changes results.
const envTraceCap = 20000

// kernelScopes is the number of kernels each experiment takes from its
// Env. Experiments without a kernel of their own have no entry.
var kernelScopes = map[string]int{
	"E1": 10, "E2": 1, "E4": 6, "E5": 2, "E6": 1, "E7": 4, "E8": 3,
	"E9": 3, "E10": 3, "E16": 3, "E18": 1, "E19": 2,
	"E21": 16, "E22": 16, "E24": 12,
}

// silentScopes lists the kernel scopes that legitimately record no trace
// events, with the reason. Every other scope must record some.
var silentScopes = map[string]string{
	"E6/orchestrated": "the staged update is a chain of kernel callbacks: no bus, middleware, node or k.Trace site",
	"E9/1024B":        "master-mediated verification only schedules its crypto delay: no bus, middleware, node or k.Trace site",
	"E9/65536B":       "as E9/1024B",
	"E9/1048576B":     "as E9/1024B",
}

// kernelStates renders what neither observation nor the queue backend
// may change in env's kernels after a run: the clock, the
// backend-invariant statistics and the position of the RNG stream.
func kernelStates(env *obs.Env) string {
	var sb strings.Builder
	for _, sc := range env.Scopes() {
		k := sc.Kernel
		st := k.Stats()
		rng := *k.RNG() // a copy: drawing from it leaves k's stream alone
		fmt.Fprintf(&sb, "%s now=%d fired=%d canceled=%d live=%d peak=%d rng=%x\n", sc.Name,
			k.Now(), st.Fired, st.Canceled, st.QueueLive, st.PeakQueue, rng.Uint64())
	}
	return sb.String()
}

// observedEnv is the Env of every observed arm below.
func observedEnv() *obs.Env { return &obs.Env{Observe: true, TraceCap: envTraceCap} }

// envRun is one run's rendered table, Chrome trace, metrics dump and
// end-of-run kernel state, plus the Env that produced them.
type envRun struct {
	env                            *obs.Env
	table, trace, metrics, kernels string
}

// runArm runs one experiment in env and renders what the arms compare.
func runArm(t *testing.T, id string, env *obs.Env) envRun {
	t.Helper()
	tb, err := RunEnv(id, env)
	if err != nil {
		t.Fatal(err)
	}
	var b, tr, m bytes.Buffer
	tb.Render(&b)
	if err := env.WriteTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if err := env.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	return envRun{env, b.String(), tr.String(), m.String(), kernelStates(env)}
}

// checkNeutral is the observation-neutrality arm: an observed run of id
// renders the plain table and leaves every kernel's clock, statistics
// and RNG position where the plain run left them. It also pins the
// number of kernels id takes from its Env and that every scope outside
// silentScopes records trace events. It returns the observed run.
func checkNeutral(t *testing.T, id string) envRun {
	t.Helper()
	plain := runArm(t, id, &obs.Env{})
	run := runArm(t, id, observedEnv())
	if run.table != plain.table {
		t.Errorf("observed table differs from plain:\n--- plain\n%s\n--- observed\n%s", plain.table, run.table)
	}
	if run.kernels != plain.kernels {
		t.Errorf("observation changed kernel state:\n--- plain\n%s--- observed\n%s", plain.kernels, run.kernels)
	}
	scopes := run.env.Scopes()
	if len(scopes) != kernelScopes[id] {
		t.Errorf("observed %d kernel scopes, want %d", len(scopes), kernelScopes[id])
	}
	for _, sc := range scopes {
		_, silent := silentScopes[sc.Name]
		if n := len(sc.Trace.Records()); (n == 0) != silent {
			t.Errorf("scope %s recorded %d trace events; listed silent: %v", sc.Name, n, silent)
		}
	}
	return run
}

// checkDeterministic is the artifact-determinism arm: a second observed
// run of id gives the Chrome trace and metrics dump of run byte for byte.
func checkDeterministic(t *testing.T, id string, run envRun) {
	t.Helper()
	again := runArm(t, id, observedEnv())
	if again.trace != run.trace {
		t.Error("Chrome trace not byte-identical across two observed runs")
	}
	if again.metrics != run.metrics {
		t.Error("metrics dump not byte-identical across two observed runs")
	}
}

// checkBackends is the backend-differential arm: a heap-only observed
// run of id equals the wheel observed run in table, trace, metrics and
// kernel state.
func checkBackends(t *testing.T, id string, wheel envRun) {
	t.Helper()
	env := observedEnv()
	env.HeapOnly = true
	heap := runArm(t, id, env)
	if heap.table != wheel.table {
		t.Errorf("heap-only table differs from wheel:\n--- wheel\n%s\n--- heap-only\n%s", wheel.table, heap.table)
	}
	if heap.trace != wheel.trace {
		t.Error("Chrome trace differs across queue backends")
	}
	if heap.metrics != wheel.metrics {
		t.Error("metrics dump differs across queue backends")
	}
	if heap.kernels != wheel.kernels {
		t.Errorf("kernel state differs across queue backends:\n--- wheel\n%s--- heap-only\n%s", wheel.kernels, heap.kernels)
	}
}

// TestRunEnv is the run-environment oracle over every experiment
// (DESIGN.md §7, §9). Each arm runs on a fresh obs.Env, serially:
//
//   - observation neutrality (checkNeutral): the observed table equals
//     the plain one, and so does every kernel's clock, statistics and
//     RNG position; every kernel an experiment builds comes from its
//     Env, and every scope outside silentScopes records trace events;
//   - artifact determinism (checkDeterministic): two observed runs give
//     byte-identical Chrome trace and metrics dump;
//   - backend differential (checkBackends): a heap-only observed run
//     equals the wheel observed run in table, trace, metrics and kernel
//     state.
//
// verify.sh soaks the E4, E21 and E24 subtests.
func TestRunEnv(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			run := checkNeutral(t, id)
			checkDeterministic(t, id, run)
			checkBackends(t, id, run)
		})
	}
}

// The named E21 and E22 arms below run one arm each on their own.

func TestE21ObservedMatchesPlain(t *testing.T) { checkNeutral(t, "E21") }
func TestE22ObservedMatchesPlain(t *testing.T) { checkNeutral(t, "E22") }

// TestObservedArtifactsByteIdentical: the Chrome trace and the metrics
// dump of an observed E21 run are byte-identical across runs, the
// determinism contract of DESIGN.md §7.
func TestObservedArtifactsByteIdentical(t *testing.T) {
	run := runArm(t, "E21", observedEnv())
	if run.trace == "" || run.metrics == "" {
		t.Error("observed artifacts empty")
	}
	checkDeterministic(t, "E21", run)
}

func TestE21BackendDifferential(t *testing.T) {
	checkBackends(t, "E21", runArm(t, "E21", observedEnv()))
}
func TestE22BackendDifferential(t *testing.T) {
	checkBackends(t, "E22", runArm(t, "E22", observedEnv()))
}

// RunObserved observes every kernel an experiment builds and falls back
// to an uninstrumented run for experiments without a kernel of their
// own (E3 is pure analysis).
func TestRunObservedFallback(t *testing.T) {
	run, err := RunObserved("E3")
	if err != nil {
		t.Fatal(err)
	}
	if run.Table == nil || len(run.Scopes()) != 0 || run.Summary() != "(not instrumented)" {
		t.Errorf("fallback run: table=%v scopes=%d summary=%q",
			run.Table != nil, len(run.Scopes()), run.Summary())
	}
	run, err = RunObserved("E1")
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Scopes()) != kernelScopes["E1"] || run.Scopes()[0].Name != "E1/0%/isolated" {
		t.Errorf("observed E1: %d scopes, summary %q", len(run.Scopes()), run.Summary())
	}
}
