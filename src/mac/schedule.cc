#include "mac/schedule.h"

#include <algorithm>

namespace digs {

void Schedule::install(Slotframe frame) {
  Entry& entry = entries_[static_cast<int>(frame.traffic)];
  entry.present = true;
  // DiGS reinstalls slotframes on every schedule update, so the per-offset
  // buffers are cleared in place rather than assign()ed: clear() keeps each
  // inner vector's capacity, sparing a free+realloc of every occupied
  // offset on each reinstall.
  if (entry.by_offset.size() == frame.length) {
    // Only the offsets of the previous frame's cells hold anything; the
    // rest are already empty.
    for (const Cell& cell : entry.frame.cells) {
      entry.by_offset[cell.slot_offset % frame.length].clear();
    }
  } else {
    for (auto& cells : entry.by_offset) cells.clear();
    entry.by_offset.resize(frame.length);
  }
  entry.listen_offsets.clear();
  entry.tx_offsets.clear();
  for (const Cell& cell : frame.cells) {
    const auto offset =
        static_cast<std::uint16_t>(cell.slot_offset % frame.length);
    entry.by_offset[offset].push_back(cell);
  }
  // The routing class is listen-by-default and transmits from its shared
  // queue at any of its cells, so every occupied offset both listens and
  // can transmit there (mirrors TschMac::plan_routing).
  const bool routing = frame.traffic == TrafficClass::kRouting;
  for (std::uint16_t offset = 0; offset < frame.length; ++offset) {
    const auto& cells = entry.by_offset[offset];
    if (cells.empty()) continue;
    const bool listens =
        routing ||
        std::any_of(cells.begin(), cells.end(), [](const Cell& cell) {
          return cell.option != CellOption::kTx;
        });
    if (listens) entry.listen_offsets.push_back(offset);
    const bool transmits =
        routing ||
        std::any_of(cells.begin(), cells.end(), [](const Cell& cell) {
          return cell.option != CellOption::kRx;
        });
    if (transmits) entry.tx_offsets.push_back(offset);
  }
  entry.frame = std::move(frame);
  entry.last_asn = kNeverOccupied;  // length may have changed
  notify_occupancy_changed();
}

void Schedule::remove(TrafficClass traffic) {
  Entry& entry = entries_[static_cast<int>(traffic)];
  entry.present = false;
  entry.frame = {};
  entry.last_asn = kNeverOccupied;
  entry.by_offset.clear();
  entry.listen_offsets.clear();
  entry.tx_offsets.clear();
  notify_occupancy_changed();
}

const Slotframe* Schedule::slotframe(TrafficClass traffic) const {
  const Entry& entry = entries_[static_cast<int>(traffic)];
  return entry.present ? &entry.frame : nullptr;
}

std::span<const Cell> Schedule::class_cells(TrafficClass traffic,
                                            std::uint64_t asn) const {
  const Entry& entry = entries_[static_cast<int>(traffic)];
  if (!entry.present || entry.frame.length == 0) return {};
  return entry.by_offset[entry.offset_at(asn)];
}

std::span<const Cell> Schedule::active_cells(std::uint64_t asn) const {
  for (int t = 0; t < kNumTrafficClasses; ++t) {
    const auto cells = class_cells(static_cast<TrafficClass>(t), asn);
    if (!cells.empty()) return cells;
  }
  return {};
}

bool Schedule::skipped(TrafficClass traffic, std::uint64_t asn) const {
  if (class_cells(traffic, asn).empty()) return false;
  for (int t = 0; t < static_cast<int>(traffic); ++t) {
    if (!class_cells(static_cast<TrafficClass>(t), asn).empty()) return true;
  }
  return false;
}

std::size_t Schedule::total_cells() const {
  std::size_t n = 0;
  for (const auto& entry : entries_) {
    if (entry.present) n += entry.frame.cells.size();
  }
  return n;
}

std::uint64_t Schedule::next_in(std::span<const std::uint16_t> offsets,
                                std::uint16_t length, std::uint64_t from) {
  if (offsets.empty() || length == 0) return kNeverOccupied;
  const auto rem = static_cast<std::uint16_t>(from % length);
  const auto it = std::lower_bound(offsets.begin(), offsets.end(), rem);
  if (it != offsets.end()) return from + (*it - rem);
  // Wrap to the first occupied offset of the next cycle.
  return from + (length - rem) + offsets.front();
}

std::uint64_t Schedule::next_tx_asn(std::uint64_t from, bool routing_pending,
                                    bool app_pending) const {
  std::uint64_t next = kNeverOccupied;
  for (int t = 0; t < kNumTrafficClasses; ++t) {
    const Entry& entry = entries_[t];
    if (!entry.present) continue;
    const auto traffic = static_cast<TrafficClass>(t);
    if (traffic == TrafficClass::kRouting && !routing_pending) continue;
    if (traffic == TrafficClass::kApplication && !app_pending) continue;
    next = std::min(next, next_in(entry.tx_offsets, entry.frame.length, from));
  }
  return next;
}

std::span<const std::uint16_t> Schedule::listen_offsets(
    TrafficClass traffic) const {
  const Entry& entry = entries_[static_cast<int>(traffic)];
  if (!entry.present) return {};
  return entry.listen_offsets;
}

std::uint16_t Schedule::frame_length(TrafficClass traffic) const {
  const Entry& entry = entries_[static_cast<int>(traffic)];
  return entry.present ? entry.frame.length : std::uint16_t{0};
}

}  // namespace digs
