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
//     fingerprint, and two observed runs emit byte-identical trace and
//     metrics artifacts
//  3. conservation          — checked inside each run (mesh accounts)
//  4. quiesce               — checked inside each run (leaked timers)
//  5. rollback-identity     — checked inside each run (update/reconfig)
//
// Four executions total, each on its own obs.Env; in-run violations are
// taken from the first plain run only (re-runs would report duplicates of
// the same breach).
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
	// Render run 1 before run 2, and compare run 2's trace as it is
	// rendered: only one trace document is held at a time.
	trace1, metrics1 := artifacts(env1)
	env2 := observedEnv()
	runScenario(sp, env2)
	trace2 := &sameBytes{want: trace1}
	if err := env2.WriteTrace(trace2); err != nil {
		panic(err)
	}
	var metrics2 bytes.Buffer
	if err := env2.WriteMetrics(&metrics2); err != nil {
		panic(err)
	}
	if !trace2.equal() {
		rep.Violations = append(rep.Violations, Violation{
			Property: PropObsNeutral,
			Detail:   "chrome-trace artifacts differ between two observed runs",
		})
	}
	if !bytes.Equal(metrics1, metrics2.Bytes()) {
		rep.Violations = append(rep.Violations, Violation{
			Property: PropObsNeutral,
			Detail: "metrics artifacts differ between two observed runs: " +
				firstDiff(string(metrics1), metrics2.String()),
		})
	}
	return rep
}

// observedEnv returns the run environment of one observed execution:
// every kernel observed, at most 4096 trace records retained per kernel.
func observedEnv() *obs.Env { return &obs.Env{Observe: true, TraceCap: 4096} }

// artifacts renders env's Chrome trace and metrics dump.
func artifacts(env *obs.Env) (trace, metrics []byte) {
	var tb, mb bytes.Buffer
	if err := env.WriteTrace(&tb); err != nil {
		panic(err)
	}
	if err := env.WriteMetrics(&mb); err != nil {
		panic(err)
	}
	return tb.Bytes(), mb.Bytes()
}

// sameBytes is an io.Writer that compares what is written to it with
// want, chunk by chunk at the running offset, without keeping it.
type sameBytes struct {
	want []byte
	off  int
	diff bool
}

func (s *sameBytes) Write(p []byte) (int, error) {
	if !s.diff {
		end := s.off + len(p)
		s.diff = end > len(s.want) || !bytes.Equal(p, s.want[s.off:end])
	}
	s.off += len(p)
	return len(p), nil
}

// equal reports whether the bytes written were exactly want: no byte
// differs and the document is neither shorter nor longer.
func (s *sameBytes) equal() bool { return !s.diff && s.off == len(s.want) }

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
