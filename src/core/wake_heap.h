// Lazy min-heap of (asn, node) wakeups for the slot engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace digs {

/// Min-heap of per-node wakeup ASNs. Entries are never decreased or removed
/// in place: callers push a fresh entry whenever a node's wakeup moves and
/// treat popped entries that disagree with the node's current wakeup as
/// stale (lazy deletion).
class WakeHeap {
 public:
  struct Entry {
    std::uint64_t asn;
    std::uint16_t node;
  };

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const Entry& top() const { return entries_.front(); }

  void push(std::uint64_t asn, std::uint16_t node) {
    entries_.push_back(Entry{asn, node});
    std::push_heap(entries_.begin(), entries_.end(), later);
  }

  Entry pop() {
    std::pop_heap(entries_.begin(), entries_.end(), later);
    const Entry entry = entries_.back();
    entries_.pop_back();
    return entry;
  }

 private:
  // std::push_heap builds a max-heap; invert the order for a min-heap. Ties
  // break by node id so pop order is deterministic.
  static bool later(const Entry& a, const Entry& b) {
    if (a.asn != b.asn) return a.asn > b.asn;
    return a.node > b.node;
  }

  std::vector<Entry> entries_;
};

}  // namespace digs
