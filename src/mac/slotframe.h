// TSCH slotframes and cells.
//
// Following the paper (Section VI), a node's schedule is built from three
// slotframes with different periods, one per traffic class:
//   synchronization (EBs)  > routing (join-in / joined-callback) > application
// in decreasing priority. A cell binds a (slot offset, channel offset) pair
// within a slotframe to an action.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace digs {

/// Traffic classes in decreasing priority (paper Section VI: "The most
/// critical synchronization traffic has the highest priority, while the
/// application traffic has the lowest").
enum class TrafficClass : std::uint8_t {
  kSync = 0,
  kRouting = 1,
  kApplication = 2,
};
inline constexpr int kNumTrafficClasses = 3;

[[nodiscard]] constexpr const char* to_string(TrafficClass t) {
  switch (t) {
    case TrafficClass::kSync: return "sync";
    case TrafficClass::kRouting: return "routing";
    case TrafficClass::kApplication: return "application";
  }
  return "?";
}

enum class CellOption : std::uint8_t {
  kTx,        // dedicated transmit cell
  kRx,        // dedicated receive cell
  kShared,    // contention (CSMA-like) slot: transmit if pending, else listen
};

struct Cell {
  std::uint16_t slot_offset{0};
  ChannelOffset channel_offset{0};
  CellOption option{CellOption::kTx};
  TrafficClass traffic{TrafficClass::kApplication};
  /// TX: link-layer destination (kNoNode for broadcast).
  /// RX: expected sender (kNoNode for any).
  NodeId peer;
  /// For application TX cells: which transmission attempt (1-based) this
  /// cell carries — attempts 1..2 go to the best parent, attempt 3 to the
  /// second-best parent (WirelessHART retransmission rule, paper Section V).
  std::uint8_t attempt{0};
  /// Application cells of the downlink graph (TX towards a child / RX from
  /// a parent); the MAC matches them against downlink-queued packets.
  bool downlink{false};
  /// Dedicated tunnel cells (source-routed multipath downlink): a ladder of
  /// their own, offset from the downlink ladder so replicated copies on the
  /// two tunnels never share a (slot, channel) with each other or with
  /// table-routed downlink traffic. Tunnel cells always have downlink set
  /// too, keeping them out of the uplink Eq. 4 audits and precedence edges.
  bool tunnel{false};

  friend bool operator==(const Cell&, const Cell&) = default;
};

struct Slotframe {
  TrafficClass traffic{TrafficClass::kApplication};
  std::uint16_t length{101};
  std::vector<Cell> cells;

  /// Copy with every cell's slot offset mapped through `perm`
  /// (perm[old] == new), the SlotSwapper reinstall primitive. `perm` must
  /// cover the frame length; offsets beyond it are left unmapped (cells
  /// outside the frame are already dead to the engine).
  [[nodiscard]] Slotframe remapped(
      std::span<const std::uint16_t> perm) const {
    Slotframe out = *this;
    for (Cell& cell : out.cells) {
      if (cell.slot_offset < perm.size()) {
        cell.slot_offset = perm[cell.slot_offset];
      }
    }
    return out;
  }
};

}  // namespace digs
