// Per-slot spatial index over the frames on the air.
//
// A slot's TransmissionAttempts are bucketed by the sender's grid cell once,
// and a receiver then visits only the buckets of its 3×3 cell neighborhood.
// Under the SpatialGrid coupling cutoff an attempt outside that
// neighborhood contributes exactly 0.0 mW and never decodes, so the bucket
// walk is bit-identical to the full scan by construction — it skips only
// terms the full scan skips too.
//
// Network builds one index over a busy slot's data frames while scanners
// exist, for the scanner selection (empty_near()), and one over the slot's
// ACKs, which Medium::interference_mw() walks through gather() on the ACK
// path. Data receptions do not use it: SlotReception reads each sender's
// row instead.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phy/medium.h"

namespace digs {

class CellAttemptIndex {
 public:
  /// Buckets `attempts` by sender cell. Attempt indices stay ascending
  /// inside each bucket (attempts are scanned in order). When the grid is
  /// unbuilt or its 3×3 filter inactive the index deactivates — every pair
  /// couples, so callers fall back to the plain full scan. The grid and the
  /// span must outlive the index (both live for the whole slot).
  void build(const SpatialGrid& grid,
             std::span<const TransmissionAttempt> attempts);

  /// True when gather() is available (grid active and build() ran).
  [[nodiscard]] bool active() const { return grid_ != nullptr; }

  /// Appends the attempt indices of every (cell, `channel`) bucket in the
  /// 3×3 neighborhood of `node`'s cell — exactly the attempts coupled to
  /// `node` that a listener on `channel` could keep — plus any overflow
  /// attempt (sender outside the grid's node range, conservatively coupled
  /// to everyone, matching Medium::coupled(); overflow is NOT channel
  /// filtered, callers still check). Buckets are appended whole, so `out`
  /// is ascending per bucket but not globally: callers needing the
  /// reference accumulation order sort it.
  void gather(std::uint16_t node, PhysicalChannel channel,
              std::vector<std::uint32_t>& out) const;

  /// True when NOTHING this slot can reach a listener at `node` on
  /// `channel`: the overflow bucket is empty and the 3×3 neighborhood of
  /// `node`'s cell holds no bucketed attempt on that channel (checked
  /// against a per-channel dilated occupancy mask built once per slot). A
  /// listener this returns true for would end up with an empty candidate
  /// list after the channel filter — no RSS, no decode, no draw, no guard
  /// miss — so callers skip it wholesale with bit-identical results.
  /// Conservatively false when the index is inactive or the node or
  /// channel is out of range.
  [[nodiscard]] bool empty_near(std::uint16_t node,
                                PhysicalChannel channel) const {
    if (grid_ == nullptr || !overflow_.empty()) return false;
    if (node >= grid_->num_nodes() || channel >= kNumChannels) return false;
    return near_stamp_[static_cast<std::size_t>(grid_->cell_of(node)) *
                           kNumChannels +
                       channel] != near_gen_;
  }

 private:
  // [cell * kNumChannels + channel] -> ascending attempt indices. Bucketing
  // by channel too keeps a listener's gather from ever touching the other
  // channels' attempts (a 16-channel EB storm would otherwise hand every
  // listener 16x the candidates just to filter them away).
  std::vector<std::vector<std::uint32_t>> buckets_;
  const SpatialGrid* grid_{nullptr};
  std::vector<std::uint32_t> touched_;  // bucket ids with entries
  std::vector<std::uint32_t> overflow_;  // senders beyond the grid's range,
                                         // or channels beyond kNumChannels
  // Dilated occupancy: near_stamp_[c * kNumChannels + ch] == near_gen_ iff
  // some bucketed attempt on channel ch lies within one cell step of cell
  // c. Generation-stamped so build() never clears the whole floor (a stale
  // stamp from a wrapped generation can only produce a false "occupied" —
  // slower, never wrong).
  std::vector<std::uint32_t> near_stamp_;
  std::uint32_t near_gen_{0};
};

}  // namespace digs
