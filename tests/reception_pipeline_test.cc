// Property tests for the O(L*T) busy-slot reception walk:
//  - SlotReception's walk() -> decode() reaches the SAME outcome (winner,
//    bit-identical RSS, guard misses) and the SAME per-listener power total
//    as a reference built from the O(L*T^2) per-pair
//    Medium::check_reception() and rss_dbm(), over randomized busy slots,
//    listeners, channels, TX powers, draw seeds and shard splits;
//  - Medium's one-pass row build stores, for every listener, exactly its
//    grid-coupled nodes with the per-pair model's means and link keys, and
//    the two rows of a pair agree;
//  - the reachability index never prunes a pair that has a nonzero
//    reception probability on any (channel, slot) — the ±6σ truncated
//    fading makes the margin a hard guarantee, not a heuristic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "net/frame.h"
#include "phy/medium.h"
#include "phy/propagation.h"
#include "phy/reception.h"

namespace digs {
namespace {

/// A scattered 60 m x 25 m floor (Testbed-A-like densities) plus two
/// outliers `outlier_m` away on the axes so the reachability index has
/// genuinely unreachable pairs. At 900 m the decode-radius grid is active
/// (the outliers sit many cells out); at 150 m the layout spans two cells
/// per axis, the grid is inactive and every row spans all nodes, as on the
/// paper-scale testbeds.
std::vector<Position> scattered_positions(std::size_t devices,
                                          std::uint64_t seed,
                                          double outlier_m) {
  Rng rng(seed);
  std::vector<Position> positions;
  for (std::size_t i = 0; i < devices; ++i) {
    positions.push_back(
        Position{rng.uniform(0.0, 60.0), rng.uniform(0.0, 25.0), 0.0});
  }
  positions.push_back(Position{outlier_m, 0.0, 0.0});
  positions.push_back(Position{0.0, outlier_m, 0.0});
  return positions;
}

std::unique_ptr<Medium> make_medium(std::uint64_t seed, bool with_jammer,
                                    double outlier_m = 900.0) {
  MediumConfig config;
  config.propagation.path_loss_exponent = 3.8;
  auto medium = std::make_unique<Medium>(
      config, scattered_positions(14, hash_mix(seed, 0x10CA), outlier_m),
      seed);
  if (with_jammer) {
    JammerConfig jammer;
    jammer.position = Position{30.0, 12.0, 0.0};
    jammer.tx_power_dbm = -4.0;
    medium->add_jammer(jammer);
  }
  return medium;
}

/// Builds a random busy slot: `count` co- and cross-channel transmitters
/// with standard frame sizes, most at the primed power, some hotter.
/// Senders are distinct, as in any physical slot (a radio transmits at most
/// once per slot) — with duplicate senders at different powers the two
/// paths would legitimately disagree on which copy to subtract.
std::vector<TransmissionAttempt> random_attempts(const Medium& medium,
                                                 std::size_t count,
                                                 Rng& rng) {
  std::vector<std::uint16_t> senders(medium.num_nodes());
  for (std::uint16_t i = 0; i < senders.size(); ++i) senders[i] = i;
  std::vector<TransmissionAttempt> attempts;
  for (std::size_t t = 0; t < count && !senders.empty(); ++t) {
    const std::size_t pick = rng.next() % senders.size();
    TransmissionAttempt attempt;
    attempt.sender = NodeId{senders[pick]};
    senders.erase(senders.begin() + static_cast<std::ptrdiff_t>(pick));
    attempt.channel = static_cast<PhysicalChannel>(rng.next() % 3);
    attempt.frame_bytes =
        kPrebuiltPrrFrameBytes[rng.next() % kPrebuiltPrrFrameBytes.size()];
    // 1 in 4 attempts transmits off the primed power, forcing the pipeline
    // through the generic rss_dbm() path; equality must hold there too.
    attempt.tx_power_dbm = (rng.next() % 4 == 0) ? 4.0 : 0.0;
    attempts.push_back(attempt);
  }
  return attempts;
}

/// A `devices`-node floor of 210 m with 50 m cells: >=4 cells per axis, so
/// the 3x3 cutoff genuinely prunes pairs (unlike the paper-scale layouts).
std::unique_ptr<Medium> make_multi_cell_medium(std::size_t devices = 42) {
  MediumConfig config;
  config.propagation.path_loss_exponent = 3.8;
  config.grid_cell_size_m = 50.0;
  Rng pos_rng(0x9A1D);
  std::vector<Position> positions;
  for (std::size_t i = 0; i < devices; ++i) {
    positions.push_back(Position{pos_rng.uniform(0.0, 210.0),
                                 pos_rng.uniform(0.0, 210.0), 0.0});
  }
  return std::make_unique<Medium>(config, positions, 0xF00D);
}

/// Regimes a parity sweep visited, counted per (listener, co-channel
/// attempt) pair from the reference checks.
struct Tally {
  std::size_t pairs = 0;
  std::size_t uncoupled = 0;
  std::size_t misses = 0;
  std::size_t hits = 0;
  std::size_t decodable = 0;
  std::size_t blacked = 0;
  std::size_t captures = 0;
};

/// The most shards a parity sweep splits its listeners over.
constexpr std::size_t kMaxShards = 3;

/// Resolves every node listening on `channel` (node r at clock offset
/// rx_offsets[r]) through the production sequence — begin_slot(), then
/// walk() and decode() on each of `shards` shards, the listeners dealt to
/// them round-robin — and checks each listener against a reference built
/// from Medium::check_reception() and rss_dbm():
///  - its total is the ascending sum of dbm_to_mw(rss_dbm()) over the
///    co-channel, non-self, grid-coupled attempts, bit for bit, which pins
///    the candidate set and the summation order;
///  - its guard misses count the maybe_reachable() pairs whose check missed
///    the guard;
///  - for several draw seeds, its winner and RSS are those of the
///    reference decode with the same prune, hash_mix(seed, rx, sender)
///    draw and strongest-RSS capture.
void check_channel(SlotReception& reception, std::size_t shards,
                   const Medium& medium,
                   std::span<const TransmissionAttempt> attempts,
                   PhysicalChannel channel, std::uint64_t slot,
                   SimTime slot_start, std::span<const double> rx_offsets,
                   double guard_us, Tally& tally) {
  const std::size_t n = medium.num_nodes();
  std::vector<SlotReception::Listener> listeners;
  std::vector<std::vector<std::uint32_t>> owned(shards);
  for (std::uint16_t r = 0; r < n; ++r) {
    listeners.push_back({NodeId{r}, channel, rx_offsets[r], guard_us});
    owned[r % shards].push_back(r);
  }
  reception.begin_slot(slot, slot_start, attempts, listeners);
  std::vector<SlotReception::Outcome> walked(n);
  for (std::size_t s = 0; s < shards; ++s) {
    reception.walk(s, owned[s], walked);
  }

  std::vector<std::vector<Medium::ReceptionCheck>> checks(n);
  for (std::uint16_t r = 0; r < n; ++r) {
    SCOPED_TRACE(::testing::Message() << "rx " << r);
    const NodeId rx{r};
    checks[r].resize(attempts.size());
    double total_mw = 0.0;
    std::uint32_t guard_misses = 0;
    for (std::uint32_t t = 0; t < attempts.size(); ++t) {
      const TransmissionAttempt& tx = attempts[t];
      if (tx.channel != channel || tx.sender == rx) continue;
      const Medium::ReceptionCheck check = medium.check_reception(
          tx, rx, slot, slot_start, attempts, rx_offsets[r], guard_us);
      checks[r][t] = check;
      ++tally.pairs;
      if (check.probability > 0.0) ++tally.decodable;
      if (medium.link_blacked_out(tx.sender, rx)) ++tally.blacked;
      if (!medium.coupled(tx.sender, rx)) {
        ++tally.uncoupled;
        continue;
      }
      ++(check.guard_missed ? tally.misses : tally.hits);
      total_mw += dbm_to_mw(
          medium.rss_dbm(tx.sender, rx, channel, slot, tx.tx_power_dbm));
      if (check.guard_missed && medium.maybe_reachable(tx.sender, rx)) {
        ++guard_misses;
      }
    }
    // Exact: the walk must be a reordering-free refactoring of the
    // reference arithmetic, not an approximation of it.
    ASSERT_EQ(std::bit_cast<std::uint64_t>(reception.total_mw(r % shards, r)),
              std::bit_cast<std::uint64_t>(total_mw));
    ASSERT_EQ(walked[r].guard_misses, guard_misses);
    ASSERT_EQ(walked[r].tx_index, -1);
  }

  for (std::uint64_t k = 0; k < 4; ++k) {
    SCOPED_TRACE(::testing::Message() << "seed " << k);
    const std::uint64_t seed = hash_mix(0x5EED, slot, channel, k);
    std::vector<SlotReception::Outcome> actual = walked;
    for (std::size_t s = 0; s < shards; ++s) {
      reception.decode(s, seed, actual);
    }
    for (std::uint16_t r = 0; r < n; ++r) {
      const NodeId rx{r};
      SlotReception::Outcome reference;
      for (std::uint32_t t = 0; t < attempts.size(); ++t) {
        const TransmissionAttempt& tx = attempts[t];
        if (tx.channel != channel || tx.sender == rx) continue;
        if (!medium.maybe_reachable(tx.sender, rx)) continue;
        const Medium::ReceptionCheck& check = checks[r][t];
        if (!(check.probability > 0.0)) continue;
        const double draw =
            hashed_uniform(hash_mix(seed, rx.value, tx.sender.value));
        if (!(draw < check.probability)) continue;
        if (check.rss_dbm > reference.rss_dbm) {
          reference.rss_dbm = check.rss_dbm;
          reference.tx_index = static_cast<std::int32_t>(t);
        }
      }
      ASSERT_EQ(actual[r].tx_index, reference.tx_index) << "rx " << r;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[r].rss_dbm),
                std::bit_cast<std::uint64_t>(reference.rss_dbm))
          << "rx " << r;
      if (reference.tx_index >= 0) ++tally.captures;
    }
  }
}

/// Every node listening on each of the three channels random_attempts()
/// uses, so each (listener, attempt) pair is checked on the attempt's
/// channel. Listener clock offsets are drawn once per node from `offsets`
/// (0 without), and slot k deals the listeners to 1 + k % kMaxShards
/// shards.
void check_slot(SlotReception& reception, const Medium& medium,
                std::span<const TransmissionAttempt> attempts,
                std::uint64_t slot, SimTime slot_start, Rng* offsets,
                double guard_us, Tally& tally) {
  std::vector<double> rx_offsets(medium.num_nodes(), 0.0);
  if (offsets != nullptr) {
    for (double& offset : rx_offsets) offset = offsets->uniform(-2500.0, 2500.0);
  }
  for (PhysicalChannel channel = 0; channel < 3; ++channel) {
    SCOPED_TRACE(::testing::Message() << "slot " << slot << " channel "
                                      << int{channel});
    check_channel(reception, 1 + slot % kMaxShards, medium, attempts, channel,
                  slot, slot_start, rx_offsets, guard_us, tally);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ReceptionPipelineTest, PipelineMatchesReferenceExactly) {
  for (const double outlier_m : {900.0, 150.0}) {
    for (const bool with_jammer : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "outliers at " << outlier_m
                                        << " m, jammer " << with_jammer);
      const auto medium_ptr =
          make_medium(0xBEEF + with_jammer, with_jammer, outlier_m);
      Medium& medium = *medium_ptr;
      medium.build_reachability(0.0);
      ASSERT_EQ(medium.grid().active(), outlier_m > 500.0);
      SlotReception reception(medium, kMaxShards);
      Rng rng(0x5107);

      Tally tally;
      for (std::uint64_t slot = 1; slot <= 40; ++slot) {
        const SimTime slot_start =
            SimTime{0} + static_cast<std::int64_t>(slot) * kSlotDuration;
        const auto attempts =
            random_attempts(medium, 2 + rng.next() % 6, rng);
        check_slot(reception, medium, attempts, slot, slot_start, nullptr,
                   std::numeric_limits<double>::infinity(), tally);
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
      }
      EXPECT_GT(tally.pairs, 1000u);
      EXPECT_GT(tally.captures, 100u);
    }
  }
}

// Clock drift adds a guard-time miss check to both reception paths; they
// must still reach the same outcome AND the same guard-miss count, over
// randomized per-node clock offsets spanning hits and misses.
TEST(ReceptionPipelineTest, GuardMissParityWithReference) {
  const auto medium_ptr = make_medium(0xD81F7, /*with_jammer=*/false);
  Medium& medium = *medium_ptr;
  medium.build_reachability(0.0);
  SlotReception reception(medium, kMaxShards);
  Rng rng(0x6A4D);
  const double guard_us = 2200.0;

  Tally tally;
  for (std::uint64_t slot = 1; slot <= 40; ++slot) {
    const SimTime slot_start =
        SimTime{0} + static_cast<std::int64_t>(slot) * kSlotDuration;
    auto attempts = random_attempts(medium, 2 + rng.next() % 6, rng);
    // Offsets up to ~2x the guard, so both verdicts occur in bulk.
    for (TransmissionAttempt& attempt : attempts) {
      attempt.clock_offset_us = rng.uniform(-2500.0, 2500.0);
    }
    check_slot(reception, medium, attempts, slot, slot_start, &rng, guard_us,
               tally);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  // Both verdicts must actually be exercised.
  EXPECT_GT(tally.misses, 100u);
  EXPECT_GT(tally.hits, 100u);
}

// The walk reads every sender's row and every listener's slot unchecked,
// so begin_slot() rejects inputs that would reach outside them.
TEST(ReceptionPipelineTest, BeginSlotRejectsInputsOutsideTheRows) {
  const auto medium_ptr = make_medium(0xCAFE, /*with_jammer=*/false);
  Medium& medium = *medium_ptr;
  SlotReception reception(medium);
  const auto n = static_cast<std::uint16_t>(medium.num_nodes());
  std::vector<TransmissionAttempt> attempts(1);
  attempts[0].sender = NodeId{1};
  const std::vector<SlotReception::Listener> listeners{{NodeId{2}, 0}};
  // No rows before build_reachability().
  EXPECT_THROW(reception.begin_slot(1, SimTime{0}, attempts, listeners),
               std::out_of_range);
  medium.build_reachability(0.0);
  reception.begin_slot(1, SimTime{0}, attempts, listeners);
  attempts[0].sender = NodeId{n};
  EXPECT_THROW(reception.begin_slot(1, SimTime{0}, attempts, listeners),
               std::out_of_range);
  attempts[0].sender = NodeId{1};
  attempts[0].channel = kNumChannels;
  EXPECT_THROW(reception.begin_slot(1, SimTime{0}, attempts, listeners),
               std::out_of_range);
  attempts[0].channel = 0;
  const std::vector<SlotReception::Listener> stray{{NodeId{n}, 0}};
  EXPECT_THROW(reception.begin_slot(1, SimTime{0}, attempts, stray),
               std::out_of_range);
}

TEST(ReceptionPipelineTest, PruningNeverSkipsReceivablePair) {
  const auto medium_ptr = make_medium(0xCAFE, /*with_jammer=*/false);
  Medium& medium = *medium_ptr;
  medium.build_reachability(0.0);

  // The index must be doing real work on this layout: the outliers are
  // unreachable from the main floor, the floor is internally connected.
  std::size_t pruned = 0;
  std::size_t kept = 0;
  for (std::uint16_t a = 0; a < medium.num_nodes(); ++a) {
    for (std::uint16_t b = 0; b < medium.num_nodes(); ++b) {
      if (a == b) continue;
      (medium.maybe_reachable(NodeId{a}, NodeId{b}) ? kept : pruned) += 1;
    }
  }
  ASSERT_GT(pruned, 0u);
  ASSERT_GT(kept, 0u);

  // Every pruned pair must have exactly zero reception probability on
  // every channel and slot we throw at it — even alone on the air (no
  // interference), which is the most favorable case for the receiver.
  for (std::uint16_t a = 0; a < medium.num_nodes(); ++a) {
    for (std::uint16_t b = 0; b < medium.num_nodes(); ++b) {
      if (a == b || medium.maybe_reachable(NodeId{a}, NodeId{b})) continue;
      TransmissionAttempt attempt;
      attempt.sender = NodeId{a};
      for (PhysicalChannel channel = 0; channel < 16; ++channel) {
        attempt.channel = channel;
        for (std::uint64_t slot = 1; slot <= 32; ++slot) {
          const SimTime slot_start =
              SimTime{0} + static_cast<std::int64_t>(slot) * kSlotDuration;
          const std::span<const TransmissionAttempt> alone(&attempt, 1);
          ASSERT_EQ(medium
                        .check_reception(attempt, NodeId{b}, slot,
                                         slot_start, alone)
                        .probability,
                    0.0)
              << "pruned pair " << a << "->" << b << " decodable on channel "
              << static_cast<int>(channel) << " slot " << slot;
        }
      }
    }
  }
}

// Multi-cell parity: on a deployment spanning >=4x4 active grid cells each
// sender's row names only its 3x3 cell neighborhood instead of every node —
// and the walk must still reach the exact reference outcome, with drifted
// clocks (guard hits AND misses) and active link blackouts (the
// fault-script primitive). Even slots sort the attempts by sender, the
// in-engine participant order, while odd slots keep a random order.
TEST(ReceptionPipelineTest, MultiCellBucketParityUnderDriftAndBlackout) {
  const auto medium_ptr = make_multi_cell_medium();
  Medium& medium = *medium_ptr;
  medium.build_reachability(0.0);
  ASSERT_TRUE(medium.grid().active());
  ASSERT_GE(medium.grid().cols(), 4u);
  ASSERT_GE(medium.grid().rows(), 4u);
  medium.set_link_blackout(NodeId{3}, NodeId{7}, true);
  medium.set_link_blackout(NodeId{11}, NodeId{2}, true);

  SlotReception reception(medium, kMaxShards);
  Rng rng(0x77AB);
  const double guard_us = 2200.0;
  Tally tally;
  for (std::uint64_t slot = 1; slot <= 60; ++slot) {
    const SimTime slot_start =
        SimTime{0} + static_cast<std::int64_t>(slot) * kSlotDuration;
    auto attempts = random_attempts(medium, 4 + rng.next() % 8, rng);
    if (slot % 2 == 0) {
      std::sort(attempts.begin(), attempts.end(),
                [](const TransmissionAttempt& a, const TransmissionAttempt& b) {
                  return a.sender.value < b.sender.value;
                });
    }
    for (TransmissionAttempt& attempt : attempts) {
      attempt.clock_offset_us = rng.uniform(-2500.0, 2500.0);
    }
    check_slot(reception, medium, attempts, slot, slot_start, &rng, guard_us,
               tally);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  // Every regime must actually be exercised on this layout.
  EXPECT_GT(tally.uncoupled, 500u);
  EXPECT_GT(tally.misses, 100u);
  EXPECT_GT(tally.hits, 100u);
  EXPECT_GT(tally.decodable, 50u);
  EXPECT_GT(tally.blacked, 10u);
}

// The regime that dominates a city floor's formation: one shared cell where
// dozens of co-channel beacons contend and every other node listens on the
// same channel, so each listener sums many terms and most rows name many
// listeners. Both grid states: a 100-node floor with 50 m cells (active)
// and the scattered floor grown to 100 nodes (inactive: every row spans all
// nodes).
TEST(ReceptionPipelineTest, SharedChannelStormParity) {
  for (const bool active : {true, false}) {
    SCOPED_TRACE(active ? "active grid" : "inactive grid");
    std::unique_ptr<Medium> medium_ptr;
    if (active) {
      medium_ptr = make_multi_cell_medium(100);
    } else {
      MediumConfig config;
      config.propagation.path_loss_exponent = 3.8;
      medium_ptr = std::make_unique<Medium>(
          config, scattered_positions(98, 0x5708, 150.0), 0x5708);
    }
    Medium& medium = *medium_ptr;
    medium.build_reachability(0.0);
    ASSERT_EQ(medium.grid().active(), active);
    const std::size_t n = medium.num_nodes();

    SlotReception reception(medium, kMaxShards);
    Rng rng(0x5707);
    const double guard_us = 2200.0;
    const PhysicalChannel channel = 11;
    Tally tally;
    for (std::uint64_t slot = 1; slot <= 6; ++slot) {
      const SimTime slot_start =
          SimTime{0} + static_cast<std::int64_t>(slot) * kSlotDuration;
      // 45 of the nodes beacon on the shared channel; the rest listen there.
      std::vector<std::uint16_t> ids(n);
      for (std::uint16_t i = 0; i < n; ++i) ids[i] = i;
      std::vector<std::uint8_t> sends(n, 0);
      for (std::size_t k = 0; k < 45; ++k) {
        const std::size_t pick = k + rng.next() % (n - k);
        std::swap(ids[k], ids[pick]);
        sends[ids[k]] = 1;
      }
      std::vector<TransmissionAttempt> attempts;
      std::vector<std::uint16_t> listening;
      for (std::uint16_t i = 0; i < n; ++i) {
        if (sends[i] == 0) {
          listening.push_back(i);
          continue;
        }
        TransmissionAttempt attempt;
        attempt.sender = NodeId{i};
        attempt.channel = channel;
        attempt.frame_bytes = FrameSizes::kEnhancedBeacon;
        attempt.clock_offset_us = rng.uniform(-1500.0, 1500.0);
        attempts.push_back(attempt);
      }
      ASSERT_GE(attempts.size(), 40u);
      std::vector<double> rx_offsets(n);
      for (double& offset : rx_offsets) offset = rng.uniform(-1500.0, 1500.0);
      SCOPED_TRACE(::testing::Message() << "slot " << slot);
      check_channel(reception, 1 + slot % kMaxShards, medium, attempts,
                    channel, slot, slot_start, rx_offsets, guard_us, tally);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    // Dozens of terms per listener, both guard verdicts, and captures
    // despite the crowd.
    EXPECT_GT(tally.pairs, 6u * 45u * 40u);
    EXPECT_GT(tally.misses, 100u);
    EXPECT_GT(tally.hits, 1000u);
    EXPECT_GT(tally.captures, 0u);
  }
}

// check_reception() reads the listener's row through rss_dbm() and the walk
// reads the sender's, so the parity tests would miss a mean written into
// the wrong slot of both. This pins the one-pass symmetric build against
// the per-pair model itself, and the symmetry the walk relies on (row a's
// entry for b is row b's entry for a), on the scattered floor with its
// outliers at 150 m (inactive grid: every row spans all nodes) and on the
// 42-node floor with 50 m cells (active grid).
TEST(MediumRowsTest, OnePassBuildMatchesPerPairModel) {
  for (const bool active : {false, true}) {
    SCOPED_TRACE(active ? "active grid" : "inactive grid");
    const auto medium_ptr =
        active ? make_multi_cell_medium()
               : make_medium(0xCAFE, /*with_jammer=*/false, 150.0);
    Medium& medium = *medium_ptr;
    medium.build_reachability(0.0);
    ASSERT_EQ(medium.grid().active(), active);
    const double power = medium.primed_power_dbm();
    const double floor_dbm =
        medium.config().sensitivity_dbm - medium.propagation().max_fading_db();
    std::size_t reachable = 0;
    std::size_t unreachable = 0;
    for (std::uint16_t r = 0; r < medium.num_nodes(); ++r) {
      const NodeId rx{r};
      const Medium::LinkRow row = medium.link_row(rx, power);
      std::vector<std::uint16_t> coupled;
      for (std::uint16_t c = 0; c < medium.num_nodes(); ++c) {
        if (medium.coupled(NodeId{c}, rx)) {
          coupled.push_back(c);
        } else {
          ASSERT_FALSE(medium.maybe_reachable(NodeId{c}, rx)) << c << "->" << r;
        }
      }
      ASSERT_EQ(std::vector<std::uint16_t>(row.cols, row.cols + row.len),
                coupled)
          << "row " << r;
      for (std::uint32_t i = 0; i < row.len; ++i) {
        const NodeId col{row.cols[i]};
        ASSERT_EQ(row.find(col.value), i) << "row " << r;
        ASSERT_EQ(row.keys[i], medium.propagation().link_key(rx, col))
            << "row " << r << " col " << col.value;
        bool any_channel = false;
        for (PhysicalChannel ch = 0; ch < kNumChannels; ++ch) {
          const double mean = medium.mean_rss_dbm(col, rx, ch, power);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(
                        row.means[static_cast<std::size_t>(ch) * row.len + i]),
                    std::bit_cast<std::uint64_t>(mean))
              << "row " << r << " col " << col.value << " ch " << int{ch};
          any_channel = any_channel || mean >= floor_dbm;
        }
        ASSERT_EQ(medium.maybe_reachable(col, rx), any_channel)
            << col.value << "->" << r;
        const Medium::LinkRow mirror = medium.link_row(col, power);
        const std::uint32_t j = mirror.find(r);
        ASSERT_LT(j, mirror.len) << "row " << col.value << " lacks " << r;
        ASSERT_EQ(mirror.keys[j], row.keys[i]) << r << "<->" << col.value;
        for (PhysicalChannel ch = 0; ch < kNumChannels; ++ch) {
          ASSERT_EQ(
              std::bit_cast<std::uint64_t>(
                  mirror.means[static_cast<std::size_t>(ch) * mirror.len + j]),
              std::bit_cast<std::uint64_t>(
                  row.means[static_cast<std::size_t>(ch) * row.len + i]))
              << r << "<->" << col.value << " ch " << int{ch};
        }
        ++(any_channel ? reachable : unreachable);
      }
    }
    EXPECT_GT(reachable, 0u);
    EXPECT_GT(unreachable, 0u);
  }
}

TEST(ReceptionPipelineTest, FadingNeverExceedsProvableMargin) {
  // The pruning margin is sensitivity - max_fading_db(); it is only sound
  // if no fading draw ever adds more than max_fading_db() to the mean RSS.
  PropagationConfig config;
  Propagation prop(config, 0x7E57);
  const double bound = prop.max_fading_db();
  EXPECT_EQ(bound, kFadingNormalBound * config.temporal_fading_sigma_db);
  double worst = 0.0;
  for (std::uint64_t slot = 0; slot < 5000; ++slot) {
    for (PhysicalChannel channel = 0; channel < 16; ++channel) {
      const double fade =
          prop.fading_db(NodeId{1}, NodeId{2}, channel, slot);
      ASSERT_LE(fade, bound);
      ASSERT_GE(fade, -bound);
      if (fade > worst) worst = fade;
    }
  }
  // The bound is tight enough to be exercised: deep fades approach it.
  EXPECT_GT(worst, 0.5 * bound);
}

}  // namespace
}  // namespace digs
