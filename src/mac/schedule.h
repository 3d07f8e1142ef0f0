// A node's TSCH schedule: up to one slotframe per traffic class, combined at
// runtime by static priority exactly as the paper's offline combination
// (Section VI, "Schedule Combination"): for a given ASN, the highest-priority
// traffic class that has any cell at that slot wins the slot; lower-priority
// cells are skipped.
//
// Because slot occupancy is statically derivable from the installed cells,
// the schedule can answer "when can this node next transmit?" and "where
// does it listen?" — the queries the slot engine uses to skip idle slots
// entirely. Each slotframe keeps two sorted offset tables: the offsets
// holding at least one cell that can transmit (TX or shared), and those
// holding at least one cell that listens unconditionally (RX or shared).
// Routing and application TX cells only put a frame on the air when a
// matching packet is queued, so the TX query counts them only when the
// caller says the queue is non-empty.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "mac/slotframe.h"

namespace digs {

/// Sentinel: no occupied slot exists (empty schedule).
inline constexpr std::uint64_t kNeverOccupied =
    std::numeric_limits<std::uint64_t>::max();

class Schedule {
 public:
  Schedule() = default;

  /// Installs (replaces) the slotframe for its traffic class.
  void install(Slotframe frame);

  /// Removes the slotframe of a class (if present).
  void remove(TrafficClass traffic);

  [[nodiscard]] const Slotframe* slotframe(TrafficClass traffic) const;

  /// Cells of the winning (highest-priority non-empty) traffic class at this
  /// ASN. Empty span if no cell is active.
  [[nodiscard]] std::span<const Cell> active_cells(std::uint64_t asn) const;

  /// Cells of a specific class active at this ASN regardless of priority
  /// (used by analysis/tests to count combination conflicts).
  [[nodiscard]] std::span<const Cell> class_cells(TrafficClass traffic,
                                                  std::uint64_t asn) const;

  /// True if a higher-priority class would preempt `traffic` at `asn`
  /// (the "skip" event of paper Eq. 6).
  [[nodiscard]] bool skipped(TrafficClass traffic, std::uint64_t asn) const;

  /// Total number of installed cells across classes.
  [[nodiscard]] std::size_t total_cells() const;

  /// Smallest ASN >= `from` at which this schedule can put a frame on the
  /// air. Sync TX/shared offsets always count (EB cells transmit whenever
  /// the node may beacon); routing and application offsets count only when
  /// the caller says the corresponding queue is non-empty — with an empty
  /// queue those slots are pure listens (or sleeps) network-invisible to
  /// everyone else. Conservative: may name a slot where the node ends up
  /// not transmitting (preempted cell, unroutable EB), never the reverse.
  [[nodiscard]] std::uint64_t next_tx_asn(std::uint64_t from,
                                          bool routing_pending,
                                          bool app_pending) const;

  /// Sorted slot offsets of `traffic` holding at least one cell that listens
  /// when the node has nothing to send (kRx/kShared anywhere; for the
  /// routing class every occupied offset, since plan_routing is
  /// listen-by-default at any routing cell). Empty if the class is absent.
  [[nodiscard]] std::span<const std::uint16_t> listen_offsets(
      TrafficClass traffic) const;

  /// Slotframe length of `traffic`, or 0 if absent.
  [[nodiscard]] std::uint16_t frame_length(TrafficClass traffic) const;

  /// Smallest asn >= `from` whose offset modulo `length` appears in the
  /// sorted `offsets` table; kNeverOccupied if the table is empty. Public so
  /// the slot engine can step over a saved copy of a node's listen pattern.
  [[nodiscard]] static std::uint64_t next_in(
      std::span<const std::uint16_t> offsets, std::uint16_t length,
      std::uint64_t from);

  /// Registers a listener invoked after every install/remove — i.e.
  /// whenever next_tx_asn or listen_offsets may have changed. The slot
  /// engine uses this to re-arm its wakeup heap when schedulers rebuild
  /// slotframes outside the slot loop (Trickle events, manager installs).
  void set_occupancy_listener(std::function<void()> listener) {
    occupancy_listener_ = std::move(listener);
  }

 private:
  struct Entry {
    bool present{false};
    Slotframe frame;
    // Last (asn, asn % length) pair class_cells() resolved, so the
    // slot-by-slot common case advances the offset with an add and a
    // conditional subtract instead of a 64-bit division. install()/remove()
    // invalidate by clearing last_asn to the sentinel. Mutable: a pure
    // lookup memo — every read reproduces exactly asn % length.
    mutable std::uint64_t last_asn{kNeverOccupied};
    mutable std::uint32_t last_offset{0};

    [[nodiscard]] std::size_t offset_at(std::uint64_t asn) const {
      const std::uint16_t length = frame.length;
      std::uint32_t off;
      if (asn >= last_asn && asn - last_asn < length) {
        off = last_offset + static_cast<std::uint32_t>(asn - last_asn);
        if (off >= length) off -= length;
      } else {
        off = static_cast<std::uint32_t>(asn % length);
      }
      last_asn = asn;
      last_offset = off;
      return off;
    }

    // cells bucketed by slot offset for O(1) lookup.
    std::vector<std::vector<Cell>> by_offset;
    // Sorted unique slot offsets holding >= 1 cell that listens
    // unconditionally (kRx or kShared; every occupied offset for the
    // routing class, which is listen-by-default).
    std::vector<std::uint16_t> listen_offsets;
    // Sorted unique slot offsets holding >= 1 cell that can transmit
    // (kTx or kShared; every occupied offset for the routing class).
    std::vector<std::uint16_t> tx_offsets;
  };

  void notify_occupancy_changed() {
    if (occupancy_listener_) occupancy_listener_();
  }

  std::array<Entry, kNumTrafficClasses> entries_{};
  std::function<void()> occupancy_listener_;
};

}  // namespace digs
