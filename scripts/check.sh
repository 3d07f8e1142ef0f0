#!/usr/bin/env bash
# Full robustness gate in one command: build + ctest on every preset
# (default, ASan+UBSan, TSan), then the bench acceptance gates
# (ext_churn exits nonzero on invariant violations or failed rejoins,
# ext_sync on a desync storm / PDR loss within the 40 ppm crystal budget,
# ext_scaling on a failed city-scale row, a shard-determinism mismatch,
# excessive 1-thread pipeline overhead, a too-high serial fraction, or a
# missed sharding-speedup threshold on multi-core hardware; ext_jamming
# on a jamming PDR collapse or swap-epoch schedule conflicts; ext_downlink
# on an unbounded actuation-latency tail, tunnel invariant violations, or
# replication failing to beat single-path through relay crashes), and the
# repo benchmark's determinism self-test (perfbench/run.py --selftest).
#
# Usage: scripts/check.sh [preset...]   (default: default sanitize tsan)
# Extra knobs pass through the environment: DIGS_BENCH_RUNS, DIGS_THREADS.
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default sanitize tsan)
fi

for preset in "${presets[@]}"; do
  echo "==> preset: ${preset}"
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j
  ctest --preset "${preset}"
done

# The bench gates run from the default-preset build tree; they write their
# JSON next to the binaries so the checked-in copies only change on purpose.
# Skipped when the default preset was excluded from this invocation.
if printf '%s\n' "${presets[@]}" | grep -qx default; then
  echo "==> gate: perf smoke (busy-slot throughput vs bench/perf_baseline.json)"
  # Reduced city busy-slot row, best of 3, profiler on; fails on >20%
  # regression against the committed baseline and then prints the
  # worst-regressing DIGS_PROF phases (name, baseline ns, current ns) so
  # the offending slot-loop phase is named, not just the ratio.
  # Re-baseline on a new CI host with DIGS_PERF_WRITE_BASELINE=1 (writes
  # the file the gate reads).
  (cd build/bench &&
   DIGS_PERF_SMOKE=1 DIGS_PERF_BASELINE=../../bench/perf_baseline.json \
   ./micro_core)
  echo "==> gate: ext_churn"
  (cd build/bench && ./ext_churn)
  echo "==> gate: ext_sync"
  (cd build/bench && ./ext_sync)
  echo "==> gate: ext_scaling"
  (cd build/bench && ./ext_scaling)
  echo "==> gate: ext_jamming"
  (cd build/bench && ./ext_jamming)
  echo "==> gate: ext_downlink"
  (cd build/bench && ./ext_downlink)
  # The repo benchmark's determinism self-test (reduced sizes): city_storm
  # and city_sharded give one digest, and traced runs match untraced ones.
  # Builds its own tree under .bench_build/.
  echo "==> gate: perfbench self-test"
  python3 perfbench/run.py --selftest
else
  echo "==> bench gates skipped (default preset not selected)"
fi

# Sharded slot pipeline under TSan: a reduced city-scale row at
# DIGS_SHARDS=4 with a real 4-worker persistent pool (DIGS_SHARD_THREADS=4
# is forced — the default would clamp to the host's core count and leave
# the pool idle on small CI boxes, losing all TSan coverage of the
# fork-join barriers, defer buffers, and replay). The smoke skips the JSON
# and only checks that the sharded run stays bit-identical to the serial
# one; races in the shard pool, the deferred side-effect replay, or the
# per-listener merge show up here, not in the single-threaded gates.
if printf '%s\n' "${presets[@]}" | grep -qx tsan; then
  echo "==> gate: ext_scaling sharded smoke (tsan, 4-thread pool)"
  (cd build-tsan/bench &&
   DIGS_SCALING_SMOKE=1 DIGS_SHARDS=4 DIGS_SHARD_THREADS=4 ./ext_scaling)
  # The jamming matrix under TSan drives the schedule-randomization
  # reinstall and the reactive jammer's slot observation through the same
  # 4-worker pool (cells force shards/threads in-config); bit-identity
  # doubles as the race detector's workload.
  echo "==> gate: ext_jamming sharded smoke (tsan, 4-thread pool)"
  (cd build-tsan/bench &&
   DIGS_JAMMING_SMOKE=1 DIGS_SHARD_THREADS=4 ./ext_jamming)
  # Tunnel replication + relay crash/repair under TSan: source-routed
  # injection at the AP, duplicate suppression, plant bookkeeping and the
  # mid-run tunnel re-derivations all cross the sharded slot pipeline;
  # the smoke pins the 4x4 cell bit-identical to serial.
  echo "==> gate: ext_downlink sharded smoke (tsan, 4-thread pool)"
  (cd build-tsan/bench &&
   DIGS_DOWNLINK_SMOKE=1 DIGS_SHARDS=4 DIGS_SHARD_THREADS=4 ./ext_downlink)
fi

echo "==> all presets and gates passed"
