#!/usr/bin/env bash
# verify.sh — the tier-1 verification path.
#
# Extends the historic `go build ./... && go test ./...` gate with
# `go vet` and the race detector; `go test -race ./...` exercises the
# parallel experiment harness (internal/experiments fans E1–E24 across
# GOMAXPROCS workers, and the cells of the E1/E21/E22/E24 sweeps across
# a second pool), so a data race between experiments or cells fails CI
# here.
set -euo pipefail
cd "$(dirname "$0")/.."

# soak COUNT PKG TEST runs one named test (or subtest) COUNT times and
# fails unless it ran and passed, so renaming or deleting a soaked test
# fails here instead of printing "[no tests to run]" and passing.
soak() {
  local count=$1 pkg=$2 name=$3 out
  if ! out=$(go test -v -count="$count" -run "^${name//\//\$/^}\$" "$pkg" 2>&1); then
    echo "$out" >&2
    return 1
  fi
  grep -E '^(ok|FAIL)' <<<"$out"
  if [ "$(grep -c -- "--- PASS: $name " <<<"$out")" -ne "$count" ]; then
    echo "soak: $name did not run $count time(s) in $pkg" >&2
    return 1
  fi
}

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt: unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# dynalint: the determinism & lifecycle static-analysis suite
# (DESIGN.md §8). Enforces the seven contracts — walltime, seededrand,
# maporder, nogoroutine, droppedref, sharedrng, parshared —
# interprocedurally over a whole-program call graph; the soak tests
# below can only sample these invariants, so violating any of them is a
# build failure here.
echo "==> dynalint ./..."
go run ./cmd/dynalint ./...

# Allow-budget gate: the committed baseline scripts/dynalint_allows.max
# caps the number of //dynalint:allow exceptions in the tree. Growth
# must be deliberate (raise the baseline in the same PR, with review of
# the new reason); shrinkage is surfaced so the budget gets ratcheted
# down.
echo "==> dynalint allow budget"
allow_budget=$(cat scripts/dynalint_allows.max)
allow_count=$(go run ./cmd/dynalint -allows -json ./... | grep -c '"check"' || true)
if [ "$allow_count" -gt "$allow_budget" ]; then
  echo "dynalint: $allow_count allow directive(s) exceed the committed budget of $allow_budget" >&2
  echo "  (inspect with: go run ./cmd/dynalint -allows ./... ; if the new exception is justified," >&2
  echo "   raise scripts/dynalint_allows.max in the same change)" >&2
  exit 1
fi
if [ "$allow_count" -lt "$allow_budget" ]; then
  echo "dynalint: $allow_count allow directive(s), below the budget of $allow_budget — consider lowering scripts/dynalint_allows.max"
else
  echo "dynalint: $allow_count allow directive(s), at budget"
fi

echo "==> go test ./..."
go test ./...

# cmd/dynabench is a module of its own (BENCHMARK.json's harness), so the
# root ./... patterns skip it; vet it and run its unit tests (golden parsing, layer
# attribution, workload checks) explicitly.
echo "==> go -C cmd/dynabench vet ./..."
go -C cmd/dynabench vet ./...
echo "==> go -C cmd/dynabench test ./..."
go -C cmd/dynabench test ./...

# Seed-1 golden smoke: with -seed 1 every dynabench workload checks its
# warm-up pass against cmd/dynabench/testdata/golden.txt (E1–E24 table
# hashes, DSE optima, the fleet render, the fingerprints of fuzz seeds
# 1..300), so byte-identity is a gate here and not only a benchmark
# check.
echo "==> dynabench seed-1 golden smoke"
for w in dse-exact dse-sample sim-suite fleet fuzz; do
  if ! out=$(bash cmd/dynabench/run.sh --workload "$w" --seed 1 --seconds 0.5 --trace 0) ||
     ! grep -q '"correct":true' <<<"$out"; then
    echo "dynabench $w: seed-1 golden check failed" >&2
    echo "$out" >&2
    exit 1
  fi
done

# The race build of the full E1–E24 suite (internal/experiments alone
# re-runs every experiment several times for the parallel/serial and
# observed/plain byte-identity proofs) outgrew go test's default
# 10-minute per-package timeout; raise it rather than thin the suite.
echo "==> go test -race ./..."
go test -race -timeout 30m ./...

# Seeded fault soak: the E21 fault-campaign sweep (ECU crash/hang/reboot,
# frame loss/corruption, partitions, babbling idiot) must render
# byte-identically on repeated runs — the determinism contract of the
# fault-injection engine (internal/faults).
echo "==> fault-campaign determinism soak (E21 x2)"
soak 2 ./internal/experiments/ TestFaultCampaignDeterministic

# Self-healing soak: the E22 recovery sweep (silence detection,
# admission-checked re-placement, shedding, endpoint migration,
# re-balancing) must render byte-identically on repeated runs — the
# determinism contract of the reconfiguration orchestrator
# (internal/reconfig).
echo "==> self-healing determinism soak (E22 x2)"
soak 2 ./internal/experiments/ TestE22Deterministic

# Service-mesh soak: the E24 overload sweep (replicated providers,
# client-side balancing, circuit breakers, criticality-aware shedding)
# must render byte-identically on repeated runs, and the fully
# instrumented run must match the plain one byte for byte — the
# determinism contract of the mesh routing plane (internal/soa mesh).
echo "==> service-mesh determinism soak (E24 x2)"
soak 2 ./internal/experiments/ TestE24Deterministic
echo "==> service-mesh observed-matches-plain (E24)"
soak 1 ./internal/experiments/ TestRunEnv/E24

# Fleet-rollout soak: the E23 staged-OTA sweep (twelve cloud campaigns
# over 3000 heterogeneous vehicle simulations) must render
# byte-identically on repeated runs — the determinism contract of the
# fleet layer (internal/fleet).
echo "==> fleet-rollout determinism soak (E23 x2)"
soak 2 ./internal/experiments/ TestE23Deterministic

# Per-vehicle seed independence: a vehicle's rendered report must be
# byte-identical whether it runs alone, in a 10-vehicle fleet, or in a
# 1000-vehicle sharded fleet, at any worker count — and a whole
# campaign's rendering must not depend on the worker count.
echo "==> fleet per-vehicle seed-independence gate"
soak 1 ./internal/fleet/ TestVehicleSeedIndependence
soak 1 ./internal/fleet/ TestCampaignShardedByteIdentical

# Pinned tables: the E11/E20 design-space tables (TestDSETablesPinned)
# and E23's fleet table (TestE23Deterministic, soaked above) hash to
# committed SHA-256 values. Soaking the DSE pin by name makes renaming
# or deleting it fail here.
echo "==> pinned DSE tables (E11, E20)"
soak 1 ./internal/experiments/ TestDSETablesPinned

# Staged-update phase 4: an old version already gone when phase 4 comes
# counts as stopped, and the update commits with one running instance,
# for the blind and the verified update alike.
echo "==> staged update commits when the old version is gone"
soak 1 ./internal/safety/update/ TestStagedUpdateOldGoneCommits/blind
soak 1 ./internal/safety/update/ TestStagedUpdateOldGoneCommits/verified

# Observability determinism soak: the Chrome trace and metrics dump of
# an observed E21 run must be byte-identical across runs and across
# fresh processes, and match their pinned SHA-256 (DESIGN.md §7).
# -count=2 re-runs TestRunEnv's E21 arms, so four observed sweeps are
# compared in total.
echo "==> observed-trace determinism soak (x2)"
soak 2 ./internal/experiments/ TestRunEnv/E21
# The observed fuzz path's artifacts are pinned the same way, for corpus
# seeds 3, 6, 13 and 22; soaking the pins by name makes renaming or
# deleting them fail here.
soak 1 ./internal/fuzz/ TestObservedArtifactsPinned

# Hand-built rig soak: E4 builds its CAN and TSN buses directly on an
# observed kernel, so its taps attach from the kernel's observer; the
# observed run must leave the table and every kernel's state as the
# plain run does.
echo "==> observed hand-built rig matches plain (E4)"
soak 1 ./internal/experiments/ TestRunEnv/E4

# Scenario-fuzz gate: 200 seeded scenarios through the universal-property
# oracle (internal/fuzz, DESIGN.md §12) — re-run identity, observation
# neutrality, mesh conservation, quiesce, rollback byte-identity. A failure prints a shrunk minimal
# spec and reproduces from (generator version, seed) alone. The corpus
# replay pins the tier-coverage seeds in testdata/fuzzcorpus.
echo "==> scenario-fuzz gate (dynafuzz -seeds 200)"
go run ./cmd/dynafuzz -seeds 200
echo "==> fuzz corpus replay"
soak 1 ./internal/fuzz/ TestCorpusReplay
# The spec holds the layers' own model, faults and soa values: the
# shrinker's JSON clone must keep every field of them, and no run of
# Check may write through the model it builds to the shared spec.
soak 1 ./internal/fuzz/ TestCloneSpecLossless
soak 1 ./internal/fuzz/ TestCheckLeavesSpecUnchanged
# The oracle's mutant proofs (the bug zoo) and its fingerprint labels:
# soaked by name, so renaming or deleting them fails here.
echo "==> oracle bug zoo and fingerprint labels"
soak 1 ./internal/fuzz/ TestOracleCatchesRollbackReofferAll
soak 1 ./internal/fuzz/ TestOracleCatchesUnsortedMigrateAttach
soak 1 ./internal/fuzz/ TestFingerprintViolationLabels

# The oracle compares two observed runs' traces and metrics by record
# and by series (obs.Env.SameTrace, SameMetrics) instead of rendering
# them. These two tests hold those compares to the rendered Chrome
# traces and metrics dumps, so the oracle can be trusted only while they
# exist and pass: soak them by name.
echo "==> structural artifact compares match the rendered artifacts"
soak 1 ./internal/fuzz/ TestSameTraceMatchesRender
soak 1 ./internal/fuzz/ TestSameMetricsMatchesRender

# Recycling differential: every pooled record above the kernel (bus
# frames, soa deliveries, segments and RPC records, mesh calls, platform
# completions and shared-CPU jobs) comes from network.Pool, and the
# norecycle build tag makes Pool.Put zero and drop each record instead
# of reusing it. A record used after its Put reads a later user's fields
# in the default build but zeroes under the tag, so any difference
# between the two builds' outputs is a use after recycling.
echo "==> recycling differential (default vs norecycle build)"
rdir=$(mktemp -d)
trap 'rm -rf "$rdir"' EXIT
for tags in default norecycle; do
  mkdir -p "$rdir/$tags"
  go build -tags "$tags" -o "$rdir/$tags/exprun" ./cmd/exprun
  go build -tags "$tags" -o "$rdir/$tags/dynafuzz" ./cmd/dynafuzz
  "$rdir/$tags/dynafuzz" -seeds 200 -json > "$rdir/$tags/fuzz.json"
  "$rdir/$tags/exprun" $("$rdir/$tags/exprun" -list) > "$rdir/$tags/exprun.txt"
done
cmp "$rdir/default/fuzz.json" "$rdir/norecycle/fuzz.json"
cmp "$rdir/default/exprun.txt" "$rdir/norecycle/exprun.txt"

# Serial differential: a default run fans experiments and the cells of
# the E1/E21/E22/E24 sweeps over GOMAXPROCS workers; one process with
# GOMAXPROCS=1 and -workers 1 runs every experiment and cell in order on
# one processor. The two renderings must be byte-identical.
echo "==> fully serial exprun matches the default fan-out"
GOMAXPROCS=1 "$rdir/default/exprun" -workers 1 $("$rdir/default/exprun" -list) > "$rdir/serial.txt"
cmp "$rdir/default/exprun.txt" "$rdir/serial.txt"

# No experiment or fuzz seed gets an RPC response after its call
# settled, so the differential above never sees a response land on a
# recycled CallRetry or mesh record. The soa tests make such late
# responses on purpose; run them under the tag too, where a record used
# after its Put reads zeroes (their allocation pins and record-reuse
# checks apply to the default build only).
echo "==> soa tests without recycling (norecycle build)"
go test -count=1 -tags norecycle ./internal/soa/

echo "verify.sh: all green"
