#!/usr/bin/env bash
# bench.sh — run the sim kernel micro-benchmarks and the E1–E24
# experiment benchmarks (whose `holds` metric doubles as a reproduction
# check), then write a machine-readable summary to BENCH_sim.json.
#
#   scripts/bench.sh            # full run, rewrites BENCH_sim.json
#   scripts/bench.sh --smoke    # one iteration each, no rewrite (CI gate)
#   scripts/bench.sh --compare  # kernel benches vs committed baseline
#   BENCHTIME=2s scripts/bench.sh
#
# --compare re-runs the kernel micro-benchmarks and fails when any is
# more than 20% slower (ns/op) than the committed BENCH_sim.json —
# the pre-merge guard for kernel hot-path work. Benchmarks absent from
# the baseline are reported and skipped. ns/op comparisons are only
# meaningful on the machine that recorded the baseline; rewrite the
# baseline (plain run) when switching hardware.
#
# The JSON has four sections:
#   kernel:      ns/op, B/op, allocs/op per micro-benchmark
#   bus:         one warm CAN and one TSN unicast frame, Send to
#                receiver (the pooled frame path; 0 allocs/op)
#   overhead:    SOA publish→deliver with observability hooks disabled
#                vs. an enabled metrics/trace plane — hooks-disabled is
#                the production default and must track the baseline —
#                plus the hooks-disabled cross-ECU path over a CAN bus,
#                one cross-ECU mesh call with breakers over TSN, the
#                fuzz oracle (Check) over seeds 1..50, and one fleet
#                rollout (BenchmarkFleetRollout)
#   experiments: holds (1|0) per experiment benchmark. An experiment
#                row runs one iteration, whose time says little, so it
#                records none: dynabench's exp.*_s is the timed view of
#                the experiments
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
OUT="BENCH_sim.json"

# Kernel micro-benchmark set. BenchmarkTickerHeavy also matches its
# 1024-ticker variant. These probe one kernel regime each; they are not
# workloads (the end-to-end workloads are dynabench's, BENCHMARK.json).
KERNEL_PAT='BenchmarkScheduleFire|BenchmarkCancelHeavy|BenchmarkTickerHeavy|BenchmarkMixed|BenchmarkKernelScheduleRun'

# Bus frame-path benchmarks (one per package; see DESIGN.md §"Network
# substrate: the frame path").
BUS_PAT='BenchmarkCANSendDeliver|BenchmarkTSNSendDeliver'

# --smoke: one iteration per benchmark and no BENCH_sim.json rewrite —
# a fast CI gate that still compiles and executes every benchmark
# (and therefore every experiment's `holds` reproduction check).
SMOKE=0
if [ "${1:-}" = "--smoke" ]; then
  SMOKE=1
  BENCHTIME=1x
  OUT="$(mktemp)"
  DLDIR="$(mktemp -d)"
  trap 'rm -f "$OUT"; rm -rf "$DLDIR"' EXIT

  # Whole-tree dynalint runtime budget: the interprocedural suite
  # (call graph + fact propagation over every non-test package) must
  # stay interactive. Build the driver first so only analysis time is
  # measured, not compilation.
  go build -o "$DLDIR/dynalint" ./cmd/dynalint
  dl_start=$(date +%s)
  "$DLDIR/dynalint" ./...
  dl_elapsed=$(( $(date +%s) - dl_start ))
  if [ "$dl_elapsed" -ge 30 ]; then
    echo "bench.sh --smoke: whole-tree dynalint took ${dl_elapsed}s, budget is 30s" >&2
    exit 1
  fi
  echo "bench.sh --smoke: whole-tree dynalint in ${dl_elapsed}s (budget 30s)"

  # Staleness guard: every registered experiment (exprun -list, i.e.
  # experiments.IDs()) needs a row in the committed BENCH_sim.json. A
  # row is "BenchmarkE<n>" followed by the capitalised benchmark name,
  # so E1 does not match E11's row.
  go build -o "$DLDIR/exprun" ./cmd/exprun
  missing=""
  for id in $("$DLDIR/exprun" -list); do
    grep -q "\"name\": \"Benchmark${id}[A-Z]" BENCH_sim.json || missing="$missing $id"
  done
  if [ -n "$missing" ]; then
    echo "bench.sh --smoke: BENCH_sim.json has no row for:$missing (rerun scripts/bench.sh)" >&2
    exit 1
  fi
  echo "bench.sh --smoke: BENCH_sim.json has a row for every registered experiment"
fi

if [ "${1:-}" = "--compare" ]; then
  if [ ! -f "$OUT" ]; then
    echo "bench.sh --compare: no $OUT baseline" >&2
    exit 1
  fi
  kernel_raw=$(go test -run '^$' -bench "$KERNEL_PAT" \
    -benchmem -benchtime "$BENCHTIME" ./internal/sim/)
  echo "$kernel_raw" | awk -v basefile="$OUT" '
    BEGIN {
      while ((getline line < basefile) > 0) {
        if (line ~ /"name": "Benchmark/) {
          match(line, /"name": "[^"]+"/)
          name = substr(line, RSTART+9, RLENGTH-10)
          if (match(line, /"ns_per_op": [0-9.]+/))
            base[name] = substr(line, RSTART+13, RLENGTH-13) + 0
        }
      }
      close(basefile)
    }
    /^Benchmark/ {
      name=$1; sub(/-[0-9]+$/, "", name)
      ns=""
      for (i=2; i<=NF; i++) if ($i == "ns/op") ns=$(i-1)
      if (ns == "") next
      if (!(name in base)) {
        printf "  %-40s %14.0f ns/op   (new, no baseline)\n", name, ns
        next
      }
      r = ns / base[name]
      flag = (r > 1.20) ? "  REGRESSION >20%" : ""
      printf "  %-40s %14.0f ns/op   baseline %14.0f   ratio %.2f%s\n", name, ns, base[name], r, flag
      if (r > 1.20) bad++
    }
    END {
      if (bad > 0) {
        printf "bench.sh --compare: %d kernel benchmark regression(s) exceed 20%% vs %s\n", bad, basefile > "/dev/stderr"
        exit 1
      }
      print "bench.sh --compare: kernel benchmarks within 20% of baseline"
    }'
  exit $?
fi

kernel_raw=$(go test -run '^$' -bench "$KERNEL_PAT" \
  -benchmem -benchtime "$BENCHTIME" ./internal/sim/)

bus_raw=$(go test -run '^$' -bench "$BUS_PAT" \
  -benchmem -benchtime "$BENCHTIME" ./internal/can/ ./internal/tsn/)

overhead_raw=$(go test -run '^$' -bench 'BenchmarkPublishDeliver|BenchmarkMeshCallCrossECU|BenchmarkFuzzCheck|BenchmarkFleetRollout' \
  -benchmem -benchtime "$BENCHTIME" ./internal/soa/ ./internal/fuzz/ .)

# mem_rows turns `go test -benchmem` output on stdin into JSON rows of
# ns/op, B/op and allocs/op, comma-separated.
mem_rows() {
  awk '
    /^Benchmark/ {
      name=$1; sub(/-[0-9]+$/, "", name)
      ns=""; bytes=""; allocs=""
      for (i=2; i<=NF; i++) {
        if ($i == "ns/op")     ns=$(i-1)
        if ($i == "B/op")      bytes=$(i-1)
        if ($i == "allocs/op") allocs=$(i-1)
      }
      line=sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                   name, ns==""?"null":ns, bytes==""?"null":bytes, allocs==""?"null":allocs)
      lines[n++]=line
    }
    END { for (i=0; i<n; i++) printf "%s%s\n", lines[i], (i<n-1?",":"") }'
}

exp_raw=$(go test -run '^$' -bench 'BenchmarkE[0-9]+' -benchtime 1x .)

{
  echo '{'
  echo "  \"generated\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"go\": \"$(go version | awk '{print $3}')\","
  echo '  "kernel": ['
  echo "$kernel_raw" | mem_rows
  echo '  ],'
  echo '  "bus": ['
  echo "$bus_raw" | mem_rows
  echo '  ],'
  echo '  "overhead": ['
  echo "$overhead_raw" | mem_rows
  echo '  ],'
  echo '  "experiments": ['
  echo "$exp_raw" | awk '
    /^Benchmark/ {
      name=$1; sub(/-[0-9]+$/, "", name)
      holds=""
      for (i=2; i<=NF; i++) if ($i == "holds") holds=$(i-1)
      line=sprintf("    {\"name\": \"%s\", \"holds\": %s}",
                   name, holds==""?"null":holds)
      lines[n++]=line
    }
    END { for (i=0; i<n; i++) printf "%s%s\n", lines[i], (i<n-1?",":"") }'
  echo '  ]'
  echo '}'
} > "$OUT"

violated=$(grep -c '"holds": 0' "$OUT" || true)
if [ "$SMOKE" = "1" ]; then
  echo "bench.sh --smoke: benchmarks ran (BENCH_sim.json left untouched)"
else
  echo "wrote $OUT"
fi
if [ "$violated" != "0" ]; then
  echo "bench.sh: $violated experiment expectation(s) VIOLATED" >&2
  exit 1
fi
