// Per-slot reception resolver: the transmitter-major busy-slot walk.
//
// Medium::check_reception() is the per-pair reference: every call re-sums
// interference over all T concurrent transmitters, so resolving one slot
// with L listeners costs O(L*T^2) with a dBm->mW pow() per term. This
// resolver computes each attempt's RSS and mW at a listener exactly once,
// keeps a per-listener total-power accumulator, and derives each pair's
// interference by subtracting the wanted sender's own contribution.
//
// The slot is resolved transmitter-major. walk() visits the on-air attempts
// in ascending index and reads each sender's Medium row for the attempt's
// channel front to back: the row lists exactly the nodes grid-coupled to
// the sender, so the listeners it names are the ones the frame reaches, and
// everything farther away is uncoupled (exactly 0.0 mW, never decoded) in
// the reference path too. Each listening neighbour's mW joins its running
// total, and its pairs that could decode are kept in a per-shard buffer;
// decode() then resolves the kept pairs against the finished totals.
//
// The doubles are the reference's, term for term:
//  - rows are symmetric: the one-pass build stores one mean per channel and
//    one link key into both rows of a pair, so the sender's entry for a
//    listener is the listener's entry for the sender, and mean + fading is
//    the RSS Medium::rss_dbm() returns;
//  - walking attempts in ascending index adds each listener's terms in
//    ascending attempt order from 0.0, the order interference_mw() sums;
//  - per pair, in ascending attempt order: maybe_reachable() prune ->
//    guard-miss count (before the sensitivity cut) -> sensitivity ->
//    blackout in the walk, then SINR with the same subtract-then-clamp and
//    the jammer sum appended last -> PRR -> hashed draw -> strongest-RSS
//    capture on a strict `>` in decode().
// reception_pipeline_test pins this over randomized busy slots on single-
// and multi-cell layouts.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/time.h"
#include "phy/medium.h"

namespace digs {

/// Resolves all receptions of one TSCH slot against a Medium whose
/// reachability index (and with it the rows) is built. Reusable scratch:
/// construct once, then per busy slot begin_slot(), and per shard walk()
/// followed by decode().
class SlotReception {
 public:
  /// One listener of the slot. `clock_offset_us`/`guard_us` feed the
  /// guard-time miss model exactly as in Medium::check_reception(); the
  /// defaults keep the listener guard-exempt.
  struct Listener {
    NodeId id;
    PhysicalChannel channel{0};
    double clock_offset_us{0.0};
    double guard_us{std::numeric_limits<double>::infinity()};
  };

  /// A listener's result: the decoded attempt (-1 when nothing decoded)
  /// with its RSS, and the listener's guard-miss count for the slot.
  struct Outcome {
    std::int32_t tx_index{-1};
    std::uint32_t guard_misses{0};
    double rss_dbm{-1e9};
  };

  /// `shards` sets how many walks may run at once, each on its own
  /// scratch.
  explicit SlotReception(const Medium& medium, std::size_t shards = 1);

  /// Starts a busy slot over `attempts` (all frames on the air) and
  /// `listeners` (at most one entry per node). Both spans must stay valid
  /// until the next begin_slot(). Serial. Throws std::out_of_range for a
  /// sender or listener outside the medium's rows, or a channel beyond
  /// kNumChannels.
  void begin_slot(std::uint64_t slot, SimTime slot_start,
                  std::span<const TransmissionAttempt> attempts,
                  std::span<const Listener> listeners);

  /// The walk, on shard `shard`'s scratch, for the listeners `owned`
  /// (indices into the slot's listeners; the others are ignored): sums
  /// every co-channel, non-self, grid-coupled attempt's mW into each owned
  /// listener's total, counts guard misses into outcomes[li], and keeps the
  /// pairs that clear the prune, guard, sensitivity and blackout checks.
  /// Walks on distinct shards may run concurrently; outcomes[li] must start
  /// as Outcome{} for every owned li.
  void walk(std::size_t shard, std::span<const std::uint32_t> owned,
            std::span<Outcome> outcomes);

  /// Decodes shard `shard`'s kept pairs against the finished totals:
  /// SINR -> PRR -> Bernoulli draw hashed from (draw_seed, listener,
  /// sender); the strongest-RSS passer wins each listener's outcomes[li].
  /// Requires walk() on the shard; const, so a test may replay it under
  /// several seeds.
  void decode(std::size_t shard, std::uint64_t draw_seed,
              std::span<Outcome> outcomes) const;

  /// Owned listener `li`'s accumulated total (mW) after walk() on `shard`.
  [[nodiscard]] double total_mw(std::size_t shard, std::uint32_t li) const {
    return shards_[shard].sums[li].total_mw;
  }

 private:
  // A listener's running sums; jammer_mw stays negative until the listener
  // keeps its first pair (jammer power is never negative).
  struct Sums {
    double total_mw;
    double jammer_mw;
  };
  // A kept (listener, attempt) pair with its RSS and mW.
  struct Pair {
    std::uint32_t li;
    std::uint32_t tx_index;
    double rss_dbm;
    double mw;
  };
  struct Shard {
    // [node] -> li << kChannelBits | channel for an owned listener, else
    // kNotOwned, whose channel bits match no channel: one load and compare
    // per row entry rejects non-listeners and other channels alike.
    std::vector<std::uint32_t> tag;
    std::vector<Sums> sums;   // [li], owned entries only
    std::vector<Pair> pairs;  // ascending attempt index per listener
    // Per attempt: the row indices of the owned listeners it reaches, with
    // each one's RSS and mW.
    std::vector<std::uint32_t> hits;
    std::vector<double> rss;
    std::vector<double> mw;
  };
  static constexpr std::uint32_t kChannelBits = 5;
  static constexpr std::uint32_t kChannelMask = (1U << kChannelBits) - 1;
  static constexpr std::uint32_t kNotOwned = ~std::uint32_t{0};
  static_assert(kNumChannels <= kChannelMask, "channel bits overflow");

  const Medium* medium_;
  std::uint64_t slot_{0};
  SimTime slot_start_{};
  std::span<const TransmissionAttempt> attempts_;
  std::span<const Listener> listeners_;
  std::vector<Shard> shards_;
};

}  // namespace digs
