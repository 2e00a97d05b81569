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
//  1. rerun-identity        — two runs of the same spec fingerprint
//     byte-identically
//  2. observation-neutrality — a fully observed run matches the plain
//     fingerprint, and a second observed run records the same traces
//     (obs.Env.SameTrace, so byte-identical Chrome documents) and the
//     same metrics (obs.Env.SameMetrics, so byte-identical dumps)
//  3. conservation          — checked inside each run (mesh accounts)
//  4. quiesce               — checked inside each run (leaked timers)
//  5. rollback-identity     — checked inside each run (update/reconfig)
//
// Three executions for a passing spec, each on its own obs.Env: one
// plain, one observed and its recheck. In-run violations are taken from
// the plain run only (re-runs would report duplicates of the same
// breach). Both observed fingerprints are compared with the plain one
// (fingerprintViolation); a fourth, plain execution runs only to label a
// mismatch. The recheck (obs.Env.Recheck) compares each trace record
// with the first observed run's as it is recorded and keeps none.
// Neither observed run's artifacts are rendered unless their metrics
// differ, and then only the metrics dumps, for the violation's text.
func Check(sp Spec) Report {
	rep := Report{Spec: sp}
	base := runScenario(sp, nil)
	rep.Fingerprint = base.fingerprint
	rep.Violations = append(rep.Violations, base.violations...)

	env1 := observedEnv()
	obs1 := runScenario(sp, env1)
	env2 := env1.Recheck()
	obs2 := runScenario(sp, env2)
	if v, ok := fingerprintViolation(base.fingerprint, obs1.fingerprint, obs2.fingerprint,
		func() string { return runScenario(sp, nil).fingerprint }); ok {
		rep.Violations = append(rep.Violations, v)
	}
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

// fingerprintViolation labels the fingerprints of a plain run (base) and
// of two observed runs (obs1, obs2). Observed runs that differ break
// re-run identity. Observed runs that agree with each other but not with
// base break either property, so only then is plain called for one more
// plain fingerprint: if it differs from base the plain runs diverge,
// otherwise observation changed the behaviour.
func fingerprintViolation(base, obs1, obs2 string, plain func() string) (Violation, bool) {
	switch {
	case obs1 != obs2:
		return rerunViolation(obs1, obs2), true
	case obs1 == base:
		return Violation{}, false
	}
	if again := plain(); again != base {
		return rerunViolation(base, again), true
	}
	return Violation{
		Property: PropObsNeutral,
		Detail:   "observed run diverges from plain run: " + firstDiff(base, obs1),
	}, true
}

// rerunViolation reports two runs of one spec whose fingerprints a and b
// differ.
func rerunViolation(a, b string) Violation {
	return Violation{
		Property: PropRerun,
		Detail:   "two runs of the same spec diverge: " + firstDiff(a, b),
	}
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
