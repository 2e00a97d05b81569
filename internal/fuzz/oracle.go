package fuzz

import (
	"bytes"
	"fmt"
	"strings"

	"dynaplat/internal/obs"
)

// Report is the oracle's verdict on one scenario. Violations is empty
// for a healthy spec; every entry reproduces from (Version, Spec.Seed)
// alone via Generate + Check.
type Report struct {
	Spec        Spec        `json:"spec"`
	Violations  []Violation `json:"violations,omitempty"`
	Fingerprint string      `json:"-"`
}

// Failed reports whether any property was violated.
func (r Report) Failed() bool { return len(r.Violations) > 0 }

// Check runs a spec through the universal-property oracle:
//
//  1. rerun-identity        — two plain runs fingerprint byte-identically
//  2. observation-neutrality — a fully observed run matches the plain
//     fingerprint, and a second observed run records the same traces
//     (obs.Env.SameTrace, so byte-identical Chrome documents) and the
//     same metrics (obs.Env.SameMetrics, so byte-identical dumps)
//  3. conservation          — checked inside each run (mesh accounts)
//  4. quiesce               — checked inside each run (leaked timers)
//  5. rollback-identity     — checked inside each run (update/reconfig)
//
// Four executions total, each on its own obs.Env; in-run violations are
// taken from the first plain run only (re-runs would report duplicates of
// the same breach). The second observed run is a recheck of the first
// (obs.Env.Recheck): its traces compare each record with the first run's
// as it is recorded and keep none. Neither run's artifacts are rendered
// unless their metrics differ, and then only the metrics dumps, for the
// violation's text.
func Check(sp Spec) Report {
	rep := Report{Spec: sp}
	base := runScenario(sp, nil)
	rep.Fingerprint = base.fingerprint
	rep.Violations = append(rep.Violations, base.violations...)

	again := runScenario(sp, nil)
	if again.fingerprint != base.fingerprint {
		rep.Violations = append(rep.Violations, Violation{
			Property: PropRerun,
			Detail: "two runs of the same spec diverge: " +
				firstDiff(base.fingerprint, again.fingerprint),
		})
	}
	env1 := observedEnv()
	obs1 := runScenario(sp, env1)
	if obs1.fingerprint != base.fingerprint {
		rep.Violations = append(rep.Violations, Violation{
			Property: PropObsNeutral,
			Detail: "observed run diverges from plain run: " +
				firstDiff(base.fingerprint, obs1.fingerprint),
		})
	}
	env2 := env1.Recheck()
	runScenario(sp, env2)
	if !env1.SameTrace(env2) {
		rep.Violations = append(rep.Violations, Violation{
			Property: PropObsNeutral,
			Detail:   "chrome-trace artifacts differ between two observed runs",
		})
	}
	if v, ok := metricsViolation(env1, env2); ok {
		rep.Violations = append(rep.Violations, v)
	}
	return rep
}

// metricsViolation reports the observation-neutrality violation of two
// observed runs whose metrics dumps differ, with the first differing
// line. It renders the dumps only when the registries are not Same.
func metricsViolation(env1, env2 *obs.Env) (Violation, bool) {
	if env1.SameMetrics(env2) {
		return Violation{}, false
	}
	var metrics1, metrics2 bytes.Buffer
	if err := env1.WriteMetrics(&metrics1); err != nil {
		panic(err)
	}
	if err := env2.WriteMetrics(&metrics2); err != nil {
		panic(err)
	}
	if bytes.Equal(metrics1.Bytes(), metrics2.Bytes()) {
		return Violation{}, false
	}
	return Violation{
		Property: PropObsNeutral,
		Detail: "metrics artifacts differ between two observed runs: " +
			firstDiff(metrics1.String(), metrics2.String()),
	}, true
}

// observedEnv returns the run environment of one observed execution:
// every kernel observed, at most 4096 trace records retained per kernel.
func observedEnv() *obs.Env { return &obs.Env{Observe: true, TraceCap: 4096} }

// CheckSeed generates and checks the scenario for one seed.
func CheckSeed(seed uint64) Report { return Check(Generate(seed)) }

// firstDiff locates the first line where two fingerprints disagree.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}
