// Per-slot reception resolver: the cell-indexed busy-slot pipeline.
//
// Medium::check_reception() is the per-pair reference: every call re-sums
// interference over all T concurrent transmitters, so resolving one slot
// with L listeners costs O(L*T^2) with a dBm->mW pow() per term. This
// resolver computes each attempt's RSS and mW at a listener exactly once,
// keeps a per-(listener, channel) total-power accumulator, and derives each
// pair's interference by subtracting the wanted sender's own contribution.
//
// On top of that, each listener only ever visits the attempts of its 3×3
// grid-cell neighborhood (via a per-slot CellAttemptIndex): everything
// farther away is uncoupled — exactly 0.0 mW, never decoded — in the
// reference path too, so the bucket walk changes no double. Per listener the
// cost is O(T_local); each candidate's (mean, link key) comes from the
// listener's Medium row through the same LinkRow::find() lookup
// Medium::rss_dbm() uses, and the hash + inverse-CDF fading draws are
// evaluated in one batched pass over the gathered candidates.
//
// The arithmetic is ordered to match Medium::check_reception() term for
// term (accumulation ascending by attempt index, same subtract-then-clamp,
// same jammer sum appended last), so decode_candidates() reaches the
// outcome a per-candidate check_reception() walk reaches, with IDENTICAL
// doubles; the reception_pipeline_test pins this over randomized busy slots
// on single- and multi-cell layouts.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/time.h"
#include "phy/cell_index.h"
#include "phy/medium.h"

namespace digs {

/// Resolves all receptions of one TSCH slot against a Medium. Reusable
/// scratch: construct once, call begin_slot() per slot, then per listener
/// begin_listener_gather(), accumulate_gathered() and decode_candidates().
class SlotReception {
 public:
  explicit SlotReception(const Medium& medium) : medium_(&medium) {}

  /// Starts a new slot over `attempts` (all frames on the air). The span
  /// must stay valid until the next begin_slot(). `cells` is the slot's
  /// attempt index; pass the one Network built so N shard resolvers share a
  /// single bucket build. nullptr builds a private index (standalone use).
  void begin_slot(std::uint64_t slot, SimTime slot_start,
                  std::span<const TransmissionAttempt> attempts,
                  const CellAttemptIndex* cells = nullptr);

  /// Stage 1: switches to listener `rx` on `channel` and gathers its
  /// candidate list (cell buckets + channel/self filter + sort), WITHOUT the
  /// RSS/fading/mW accumulation. Returns candidates().
  /// `rx_clock_offset_us`/`guard_us` feed the guard-time miss model exactly
  /// as in Medium::check_reception(); the defaults keep the listener
  /// guard-exempt (pre-drift behavior). Callers that can prove the
  /// listener's outcome is empty from the candidate ids alone — Network
  /// skips listeners none of whose candidates are maybe_reachable(), since
  /// a pruned pair's decode is the zero outcome with no guard miss — avoid
  /// stage 2 entirely.
  [[nodiscard]] std::span<const std::uint32_t> begin_listener_gather(
      NodeId rx, PhysicalChannel channel, double rx_clock_offset_us = 0.0,
      double guard_us = std::numeric_limits<double>::infinity());

  /// Stage 2: the batched mean/key -> fading -> mW accumulation over the
  /// gathered candidates, after which decode_candidates() is valid for the
  /// current listener.
  void accumulate_gathered();

  /// The current listener's candidate attempts (ascending attempt index):
  /// every co-channel, non-self, grid-coupled entry of the slot's attempt
  /// span. Nothing else can decode or interfere at the listener.
  [[nodiscard]] std::span<const std::uint32_t> candidates() const {
    return cand_;
  }

  /// Result of decode_candidates(): the winning transmitter (attempt index,
  /// -1 when nothing decoded) with its RSS, plus the listener's guard-miss
  /// count for the slot.
  struct DecodeOutcome {
    std::int32_t best_tx{-1};
    double best_rss{-1e9};
    std::uint32_t guard_misses{0};
  };

  /// Batched decode of the whole candidate list for the current listener:
  /// per candidate ascending, maybe_reachable() prune -> guard-miss count ->
  /// sensitivity cut -> blackout -> SINR/PRR -> Bernoulli draw hashed from
  /// (slot_draw_seed, rx, sender); the strongest-RSS passer wins. One
  /// sequential walk over the gathered arrays with the per-call constants
  /// (sensitivity, noise floor, totals) hoisted — identical doubles and
  /// identical guard-miss accounting to Medium::check_reception() per
  /// candidate with the same prune. Requires accumulate_gathered() for the
  /// current listener.
  [[nodiscard]] DecodeOutcome decode_candidates(
      std::uint64_t slot_draw_seed) const;

 private:
  // Runs at the tail of begin_listener_gather(): resolves each candidate's
  // row index with LinkRow::find() and prefetches the matched mean and key.
  // Doing this in stage 1 lets the caller's work between the two stages
  // (Network's reachability pre-scan) overlap the scattered row loads that
  // dominate stage 2.
  void prime_candidate_rows();

  const Medium* medium_;
  std::uint64_t slot_{0};
  SimTime slot_start_{};
  std::span<const TransmissionAttempt> attempts_;
  const CellAttemptIndex* cells_{nullptr};
  CellAttemptIndex own_cells_;  // built only when begin_slot gets no index

  // Current listener's state.
  NodeId rx_;
  PhysicalChannel channel_{0};
  double rx_clock_offset_us_{0.0};
  double guard_us_{std::numeric_limits<double>::infinity()};
  // Candidate scratch (per listener): attempt indices ascending, and the
  // parallel arrays the batched mean/key -> fading -> mW passes fill.
  std::vector<std::uint32_t> cand_;
  std::vector<std::uint32_t> cand_idx_;  // row index per candidate
  // The listener's row, resolved by prime_candidate_rows() and consumed by
  // accumulate_gathered(); row_.len marks a candidate missing from it.
  Medium::LinkRow row_;
  std::vector<double> cand_rss_;
  std::vector<double> cand_mw_;
  std::vector<double> cand_mean_;
  std::vector<std::uint64_t> cand_key_;
  std::vector<std::uint8_t> cand_fast_;
  double total_mw_{0.0};  // sum of candidate mw, ascending attempt order
  double jammer_mw_{0.0};
};

}  // namespace digs
