#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
# Broken or ambiguous intra-doc links fail the build, so a removed or
# renamed item cannot leave a dangling [`link`] behind in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test =="
cargo test --workspace -q

echo "== chaos smoke (fault matrix: reproducibility + validity flips) =="
# Builds the scenario x fault matrix twice with the default seed and asserts
# byte-identical output, VALID fault-free baselines, at least one
# INVALID-flipping fault per scenario, and at least one cell rescued by the
# resilience policies. The table itself is noise in CI logs.
cargo run -q --release -p mlperf-harness --bin chaos -- --check > /dev/null

echo "== networked chaos smoke (wire faults: integrity + session resume) =="
# The wire-fault half of the matrix: scenario x wire fault x resume over a
# loopback daemon. Asserts corruption/truncation/partition surface as
# error-fraction (CRC rejects, never a fake completion), an unresumed
# disconnect ends IncompleteQueries, and reconnect+resume rescues it with
# a logical detail log byte-identical to the fault-free baseline.
cargo run -q --release -p mlperf-harness --bin chaos -- --wire --check > /dev/null

echo "== crash chaos smoke (process-kill quadrant: journal resume is lossless) =="
# The crash quadrant: four cells, each a real SIGKILL against a journaled
# wire run halted at a deterministic checkpoint boundary — client killed,
# daemon killed, both killed, and client killed mid-checkpoint-write (a
# genuinely torn frame). Each cell restarts the dead processes and resumes
# from the MLPJ journals; the check asserts every rescued run is VALID
# with a logical detail-log hash equal to the uninterrupted baseline's,
# the torn frame is detected exactly where it was inflicted, and the
# whole matrix renders byte-identically across two builds.
cargo run -q --release -p mlperf-harness --bin chaos -- --crash --check > /dev/null

echo "== netbench loopback smoke (network SUT: tracing + telemetry) =="
# Single-process wire smoke: a serving daemon and a RemoteSut client on a
# loopback socket run the scaled-down offline + server pair twice, asserting
# every run is VALID, the logical detail log (deterministic per-query
# fields) renders byte-identically across connections under the fixed seed,
# the merged client+server detail log passes the TEST06 completeness audit
# with at least one end-to-end trace (client issue -> server compute ->
# client complete under one trace id), and the daemon's live stats
# snapshot parses.
cargo run -q --release -p mlperf-harness --bin netbench -- --loopback --stats --check

echo "== netbench fleet smoke (sharded serving survives losing a shard) =="
# Fleet mode: three heterogeneous loopback daemons behind one weighted
# ShardedSut router. A seeded victim daemon is killed mid-server-run while
# it has a query in flight; the check asserts the router rescues the
# in-flight work (the run stays VALID, the merged sharded log passes the
# completeness audit, and the victim's down + failover rows are present),
# and that a second fresh fleet renders a byte-identical logical log.
cargo run -q --release -p mlperf-harness --bin netbench -- --loopback --shards 3 --check

echo "== replay roundtrip smoke (record -> reduce -> replay, three legs) =="
# The record-reduce-replay audit: a simulated server run is recorded,
# reduced 20x, and replayed through the DES (same verdict, fingerprint
# within bound, recording and reduction byte-reproducible, reduced trace
# byte-identical to the committed results/fixtures/replay_reduced.mlpr —
# re-bless with `replay roundtrip --bless` after an intentional format or
# reducer change); a realtime loopback run is recorded, reduced 10x, and
# replayed over a fresh connection to the same verdict; and the same
# reduced trace drives a 3-shard fleet to a VALID run.
cargo run -q --release -p mlperf-harness --bin replay -- roundtrip --check

echo "== tail-latency forensics (committed artifacts regenerate byte-identically) =="
# Re-analyzes the committed log fixtures under results/fixtures/ and
# asserts: results/analysis.{md,json} reproduce byte-for-byte, the
# per-query segment decomposition sums to the end-to-end latency exactly
# (residual 0ns), and the chaos flight-dump fixture yields a root cause
# naming every constraint its reason line records. After an intentional
# report change, re-bless with:
#   cargo run --release -p mlperf-harness --bin analyze -- --check --bless
cargo run -q --release -p mlperf-harness --bin analyze -- --check

echo "== bench suite (smoke mode, JSON report) =="
# Fast smoke pass over every bench binary: each one appends its medians to
# one machine-readable report. MLPERF_TRACE_OVERHEAD_MAX_PCT makes the
# trace_overhead bench assert that a disabled sink stays within noise of
# the un-traced baseline (the observability layer must be free when off);
# MLPERF_FAULT_OVERHEAD_MAX_PCT does the same for a disarmed FaultySut
# wrapper (the chaos hooks must be free when no fault is armed);
# MLPERF_WIRE_OVERHEAD_MAX_PCT bounds the loopback wire tax in the
# wire_overhead bench (warn-only: loopback latency is kernel-dependent);
# MLPERF_WIRE_CHAOS_OVERHEAD_MAX_PCT bounds the disarmed chaos-decorator
# tax in wire_chaos_overhead (also warn-only, same noise caveat);
# MLPERF_REPLAY_OVERHEAD_MAX_PCT bounds the DES replay-vs-native gap in
# replay_reduce (warn-only — replay has historically been *faster* than
# the native scheduler, so a warning here means the replay path grew a
# hot-loop cost);
# MLPERF_JOURNAL_OVERHEAD_MAX_PCT bounds the fsync-free checkpoint
# serialization tax in journal_overhead (warn-only: the plain DES
# baseline is ~300 ns/query, so the ratio is noisy by construction —
# the gate exists to flag a return of the quadratic full-snapshot
# serialization, which showed up as >16000% before delta frames).
BENCH_JSON="$(pwd)/target/bench-current.json"
rm -f "$BENCH_JSON"
MLPERF_BENCH_JSON="$BENCH_JSON" \
MLPERF_BENCH_BUDGET_MS=50 \
MLPERF_BENCH_LABEL="ci-smoke" \
MLPERF_GIT_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
MLPERF_TRACE_OVERHEAD_MAX_PCT=10 \
MLPERF_FAULT_OVERHEAD_MAX_PCT=10 \
MLPERF_WIRE_OVERHEAD_MAX_PCT=150 \
MLPERF_WIRE_CHAOS_OVERHEAD_MAX_PCT=25 \
MLPERF_REPLAY_OVERHEAD_MAX_PCT=25 \
MLPERF_JOURNAL_OVERHEAD_MAX_PCT=2000 \
cargo bench -p mlperf-bench

if [[ -f BENCH_PR10.json ]]; then
  echo "== bench-compare vs committed baseline (hot-path + trace-overhead gates fail) =="
  # The loadgen hot path (des_*, poisson_schedule, sample_indices) and the
  # trace-overhead trio (run_simulated_*) are HARD gates: a median
  # regression beyond the tolerance fails CI. Every other population stays
  # advisory (bench-compare prints WARNING lines) — shared CI machines are
  # noisy and those benches exist for trend-watching, not gating.
  #
  # Tolerance: 50%. Recorded headroom: the worst gated delta observed on
  # the CI container when this gate was flipped to failing was +15.4%
  # (des_single_stream_10000_queries), so 50% absorbs runner noise while
  # still catching an accidental O(n) slip (those show up as >2x).
  # Refresh the baseline (copy target/bench-current.json over
  # BENCH_PR10.json) when a slowdown is intentional.
  cargo run -q -p mlperf-harness --bin bench-compare -- \
      "$(pwd)/BENCH_PR10.json" "$BENCH_JSON" --tolerance 50 \
      --fail-on des_server --fail-on des_single_stream \
      --fail-on poisson_schedule --fail-on sample_indices \
      --fail-on run_simulated
fi

echo "CI green."
