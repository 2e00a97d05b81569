package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
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

// kernelStates renders what observation may not change in env's kernels
// after a run: the clock, the event-program statistics and the position
// of the RNG stream.
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
		if n := sc.Trace.Len(); (n == 0) != silent {
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

// pinnedArtifacts holds the SHA-256 of the Chrome trace and the metrics
// dump of one observed run (observedEnv) of the experiments whose
// artifacts are part of the determinism contract, and each kernel
// scope's count of trace records dropped past envTraceCap, in scope
// order. A kernel that fills the cap leaves its tail out of the trace
// hash; its dropped count still moves when the tail gains or loses
// records. A change to any of them must be deliberate and repin.
var pinnedArtifacts = map[string]struct {
	trace, metrics string
	dropped        []int64
}{
	"E21": {"d4deeb72b479a8a809ffa7ed4d07af61b38d75e02d8f581803d75d1ad51318b4",
		"cc8ad8a6f6f3f266380be1024818aec06879e8354ef7f45dafd3ad4d6acdebd7",
		[]int64{11005, 17009, 11004, 17008, 10812, 16356, 11243, 16787, 9364, 16041, 10646, 17292, 15696, 25293, 16818, 26558}},
	"E22": {"962d743a74d4ccd3996a60b81fe83e619033dbabe80c0493a28fe2d0b6195aa4",
		"676d9097959fd0c90ce63f013f0c81d0dd128914bd2538377950aae8f7307ffd",
		[]int64{46018, 54022, 46018, 54022, 42343, 50199, 46022, 53911, 42508, 51162, 46024, 53830, 38252, 46200, 45968, 52774}},
	"E24": {"fdec98620dfefb3296517252136acfd11cb9c37a22f5173dbc2aa9ab7e02e99f",
		"4215d864221b01b1c3037197c7a0d3c0af0ebec6ea5c9fcefc860fa43e83e8ae",
		[]int64{0, 0, 0, 0, 13685, 15846, 16024, 16024, 46834, 43700, 44025, 31630}},
}

// checkPinned is the pinned-artifact arm: run's Chrome trace and metrics
// dump hash to the values in pinnedArtifacts, and its scopes dropped the
// pinned numbers of trace records, if id has an entry.
func checkPinned(t *testing.T, id string, run envRun) {
	t.Helper()
	pin, ok := pinnedArtifacts[id]
	if !ok {
		return
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(run.trace))); got != pin.trace {
		t.Errorf("Chrome trace sha256 %s, pinned %s", got, pin.trace)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(run.metrics))); got != pin.metrics {
		t.Errorf("metrics dump sha256 %s, pinned %s", got, pin.metrics)
	}
	var dropped []int64
	for _, sc := range run.env.Scopes() {
		dropped = append(dropped, sc.Trace.Dropped)
	}
	if !slices.Equal(dropped, pin.dropped) {
		t.Errorf("dropped trace records per scope %#v, pinned %#v", dropped, pin.dropped)
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
//   - pinned artifacts (checkPinned): the E21, E22 and E24 Chrome trace
//     and metrics dump keep their pinned SHA-256.
//
// verify.sh soaks the E4, E21 and E24 subtests.
func TestRunEnv(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			run := checkNeutral(t, id)
			checkPinned(t, id, run)
			checkDeterministic(t, id, run)
		})
	}
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
