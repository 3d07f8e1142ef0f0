// Property tests for the O(L*T) busy-slot reception pipeline:
//  - the production sequence begin_listener_gather() ->
//    accumulate_gathered() -> decode_candidates() reaches the SAME outcome
//    (winner, bit-identical RSS, guard misses) as a reference decode built
//    from the O(L*T^2) per-pair Medium::check_reception(), over randomized
//    busy slots, listeners, channels, TX powers and draw seeds;
//  - Medium's one-pass row build stores, for every listener, exactly its
//    grid-coupled nodes with the per-pair model's means and link keys;
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
#include <vector>

#include "common/rng.h"
#include "common/time.h"
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

/// A 42-node floor of 210 m with 50 m cells: >=4 cells per axis, so the
/// 3x3 cutoff genuinely prunes pairs (unlike the paper-scale layouts).
std::unique_ptr<Medium> make_multi_cell_medium() {
  MediumConfig config;
  config.propagation.path_loss_exponent = 3.8;
  config.grid_cell_size_m = 50.0;
  Rng pos_rng(0x9A1D);
  std::vector<Position> positions;
  for (std::size_t i = 0; i < 42; ++i) {
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

/// Runs the production sequence for listener `rx` on `channel` —
/// begin_listener_gather() -> accumulate_gathered() -> decode_candidates()
/// — and checks it against a reference built from Medium::check_reception()
/// with the same maybe_reachable() prune, guard-miss count,
/// hash_mix(seed, rx, sender) draw and strongest-RSS capture, for several
/// draw seeds. Also checks that candidates() is exactly the co-channel,
/// non-self, grid-coupled attempts in ascending order.
void check_listener(SlotReception& reception, const Medium& medium,
                    std::span<const TransmissionAttempt> attempts, NodeId rx,
                    PhysicalChannel channel, std::uint64_t slot,
                    SimTime slot_start, double rx_offset_us, double guard_us,
                    Tally& tally) {
  std::vector<std::uint32_t> expected;
  std::vector<Medium::ReceptionCheck> checks(attempts.size());
  for (std::uint32_t t = 0; t < attempts.size(); ++t) {
    const TransmissionAttempt& tx = attempts[t];
    if (tx.channel != channel || tx.sender == rx) continue;
    checks[t] = medium.check_reception(tx, rx, slot, slot_start, attempts,
                                       rx_offset_us, guard_us);
    ++tally.pairs;
    if (!medium.coupled(tx.sender, rx)) {
      ++tally.uncoupled;
    } else {
      expected.push_back(t);
      ++(checks[t].guard_missed ? tally.misses : tally.hits);
    }
    if (checks[t].probability > 0.0) ++tally.decodable;
    if (medium.link_blacked_out(tx.sender, rx)) ++tally.blacked;
  }

  const std::span<const std::uint32_t> gathered =
      reception.begin_listener_gather(rx, channel, rx_offset_us, guard_us);
  ASSERT_EQ(std::vector<std::uint32_t>(gathered.begin(), gathered.end()),
            expected);
  reception.accumulate_gathered();

  for (std::uint64_t k = 0; k < 4; ++k) {
    const std::uint64_t seed = hash_mix(0x5EED, slot, rx.value, k);
    SlotReception::DecodeOutcome reference;
    for (std::uint32_t t = 0; t < attempts.size(); ++t) {
      const TransmissionAttempt& tx = attempts[t];
      if (tx.channel != channel || tx.sender == rx) continue;
      if (!medium.maybe_reachable(tx.sender, rx)) continue;
      const Medium::ReceptionCheck& check = checks[t];
      if (check.guard_missed) {
        ++reference.guard_misses;
        continue;
      }
      if (!(check.probability > 0.0)) continue;
      const double draw =
          hashed_uniform(hash_mix(seed, rx.value, tx.sender.value));
      if (!(draw < check.probability)) continue;
      if (check.rss_dbm > reference.best_rss) {
        reference.best_rss = check.rss_dbm;
        reference.best_tx = static_cast<std::int32_t>(t);
      }
    }
    const SlotReception::DecodeOutcome actual =
        reception.decode_candidates(seed);
    // Exact: the pipeline must be a reordering-free refactoring of the
    // reference arithmetic, not an approximation of it.
    ASSERT_EQ(actual.best_tx, reference.best_tx) << "seed " << k;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual.best_rss),
              std::bit_cast<std::uint64_t>(reference.best_rss))
        << "seed " << k;
    ASSERT_EQ(actual.guard_misses, reference.guard_misses) << "seed " << k;
    if (reference.best_tx >= 0) ++tally.captures;
  }
}

/// Every listener on each of the three channels random_attempts() uses, so
/// each (listener, attempt) pair is checked on the attempt's channel.
void check_slot(SlotReception& reception, const Medium& medium,
                std::span<const TransmissionAttempt> attempts,
                std::uint64_t slot, SimTime slot_start, Rng* offsets,
                double guard_us, Tally& tally) {
  for (std::uint16_t r = 0; r < medium.num_nodes(); ++r) {
    const double rx_offset_us =
        offsets != nullptr ? offsets->uniform(-2500.0, 2500.0) : 0.0;
    for (PhysicalChannel channel = 0; channel < 3; ++channel) {
      SCOPED_TRACE(::testing::Message() << "slot " << slot << " rx " << r
                                        << " channel " << int{channel});
      check_listener(reception, medium, attempts, NodeId{r}, channel, slot,
                     slot_start, rx_offset_us, guard_us, tally);
      if (::testing::Test::HasFatalFailure()) return;
    }
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
      SlotReception reception(medium);
      Rng rng(0x5107);

      Tally tally;
      for (std::uint64_t slot = 1; slot <= 40; ++slot) {
        const SimTime slot_start =
            SimTime{0} + static_cast<std::int64_t>(slot) * kSlotDuration;
        const auto attempts =
            random_attempts(medium, 2 + rng.next() % 6, rng);
        reception.begin_slot(slot, slot_start, attempts);
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
  SlotReception reception(medium);
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
    reception.begin_slot(slot, slot_start, attempts);
    check_slot(reception, medium, attempts, slot, slot_start, &rng, guard_us,
               tally);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  // Both verdicts must actually be exercised.
  EXPECT_GT(tally.misses, 100u);
  EXPECT_GT(tally.hits, 100u);
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

// Multi-cell parity: on a deployment spanning >=4x4 active grid cells the
// resolver gathers each listener's attempts from its 3x3 cell-neighborhood
// buckets instead of scanning the slot — and must still reach the exact
// reference outcome, with drifted clocks (guard hits AND misses) and active
// link blackouts (the fault-script primitive). Even slots sort the attempts
// by sender — the in-engine ascending order each row search resumes from —
// while odd slots keep the random order that restarts it.
TEST(ReceptionPipelineTest, MultiCellBucketParityUnderDriftAndBlackout) {
  const auto medium_ptr = make_multi_cell_medium();
  Medium& medium = *medium_ptr;
  medium.build_reachability(0.0);
  ASSERT_TRUE(medium.grid().active());
  ASSERT_GE(medium.grid().cols(), 4u);
  ASSERT_GE(medium.grid().rows(), 4u);
  medium.set_link_blackout(NodeId{3}, NodeId{7}, true);
  medium.set_link_blackout(NodeId{11}, NodeId{2}, true);

  SlotReception reception(medium);
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
    reception.begin_slot(slot, slot_start, attempts);
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

// check_reception() reads the same rows through rss_dbm() that the pipeline
// reads, so the parity tests cannot see a mean written into the wrong slot.
// This pins the one-pass symmetric build against the per-pair model itself,
// on the scattered floor with its outliers at 150 m (inactive grid: every
// row spans all nodes) and on the 42-node floor with 50 m cells (active
// grid).
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
