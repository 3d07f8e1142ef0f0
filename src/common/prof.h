// Slot-loop phase profiler (DIGS_PROF=1).
//
// The simulator's wall-clock lives almost entirely in the per-slot loop, so
// perf PRs need a *phase* breakdown (wake-heap pop, attempt gather, bucket
// build, begin_listener, decode, merge barrier, ...) rather than end-to-end
// deltas. This module accumulates per-phase wall nanoseconds and call counts
// into process-global relaxed atomics, so trials running on the parallel
// trial runner (and shards inside a trial) all fold into one breakdown.
//
// Cost model: everything is gated on one cached bool read from the
// DIGS_PROF environment variable at first use. When off (the default), the
// instrumentation sites reduce to a predictable not-taken branch — no clock
// calls, no atomic traffic — and simulation *results* are unaffected either
// way (the profiler only ever measures time). The acceptance contract is
// pinned by tests/prof_test.cc: results are bit-identical with the profiler
// on and off, and the phase totals cover the slot-loop wall time.
#pragma once

#include <cstdint>
#include <string>

namespace digs::prof {

/// Slot-loop phases, in pipeline order. kSlotTotal is the whole slot body
/// (the denominator the phases are checked against), not a summed phase.
/// kBarrierWait/kWorkerIdle are *detail* phases: they overlap the wall
/// phases (a barrier wait happens inside kShardResolve/kDeliver/... on the
/// calling thread; worker idle overlaps whatever the caller is doing), so
/// they are excluded from summed_phase_ns() — the wall phases alone must
/// still cover kSlotTotal.
enum Phase : int {
  kWakePop = 0,     // wake-heap drain + participant/listener set build
  kPlanGather,      // settle + plan_slot over participants + attempt gather
  kBucketBuild,     // per-cell attempt bucket construction
  kBeginListener,   // reception walk: rows + RSS/mW totals (1 shard; one
                    // lap per busy slot)
  kDecode,          // kept-pair SINR/PRR + draws (1 shard; one lap per
                    // busy slot)
  kShardResolve,    // sharded reception fan-out + barrier (>1 shard; holds
                    // that run's begin_listener and decode time)
  kMergeCompact,    // listener-order compaction of per-shard results
  kAckResolve,      // ACK buckets + reverse-link resolution
  kDeliver,         // frame delivery + TX outcome reporting
  kEnergySettle,    // per-participant energy accounting + end_slot
  kWakeRefresh,     // post-slot wake recomputation + engine re-arm
  kBarrierWait,     // detail: caller waiting on the fork-join barrier
  kWorkerIdle,      // detail: pool workers out of tasks / between regions
  kSlotTotal,       // whole slot body (engine_tick / slot_tick), not summed
  kNumPhases,
};

/// True for the chained wall phases whose totals sum to kSlotTotal; false
/// for kSlotTotal itself and the overlapping detail phases.
[[nodiscard]] constexpr bool is_wall_phase(Phase phase) {
  return phase != kSlotTotal && phase != kBarrierWait && phase != kWorkerIdle;
}

/// Short stable key for each phase (JSON field names).
[[nodiscard]] const char* phase_name(Phase phase);

/// True when DIGS_PROF=1 was set at first call (cached). Hot paths should
/// read it once per scope into a local bool.
[[nodiscard]] bool enabled();

/// Test hook: overrides the cached DIGS_PROF decision.
void force_enabled(bool on);

/// Monotonic timestamp in ns (only meaningful for differences).
[[nodiscard]] std::uint64_t now_ns();

/// Adds `ns` to `phase` and bumps its call count. Thread-safe (relaxed
/// atomics; counters are totals, no ordering needed).
void add(Phase phase, std::uint64_t ns);

/// Chained phase boundary: charges [mark, now) to `phase` and returns now,
/// so consecutive phases share one clock read and leave no gap between
/// them (what keeps the phase sum tight against the slot total).
[[nodiscard]] inline std::uint64_t lap(Phase phase, std::uint64_t mark) {
  const std::uint64_t now = now_ns();
  add(phase, now - mark);
  return now;
}

[[nodiscard]] std::uint64_t total_ns(Phase phase);
[[nodiscard]] std::uint64_t calls(Phase phase);

/// Sum of the wall phases (everything except kSlotTotal and the
/// overlapping kBarrierWait/kWorkerIdle detail phases).
[[nodiscard]] std::uint64_t summed_phase_ns();

/// Zeroes every counter (benches call this to scope a breakdown to one run).
void reset();

/// JSON object literal for bench output: {"enabled": ..., "phases": {...}}.
/// When disabled, the phases map is present but all-zero.
[[nodiscard]] std::string json();

/// RAII phase timer: no-ops (no clock call) unless constructed enabled.
class ScopedTimer {
 public:
  ScopedTimer(Phase phase, bool on) : phase_(phase), on_(on) {
    if (on_) start_ = now_ns();
  }
  ~ScopedTimer() {
    if (on_) add(phase_, now_ns() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Phase phase_;
  bool on_;
  std::uint64_t start_{0};
};

}  // namespace digs::prof
