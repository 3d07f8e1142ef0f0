// Unit tests for the PHY substrate: geometry, propagation, PRR model,
// jammers, and the medium.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "phy/geometry.h"
#include "phy/jammer.h"
#include "phy/medium.h"
#include "phy/propagation.h"
#include "phy/prr.h"

namespace digs {
namespace {

// --- geometry ---

TEST(GeometryTest, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0, 0}, {3, 4, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1, 1}, {1, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(distance({0, 0, 0}, {0, 0, 2}), 2.0);
}

TEST(GeometryTest, FloorsCrossed) {
  EXPECT_EQ(floors_crossed({0, 0, 0}, {0, 0, 0}), 0);
  EXPECT_EQ(floors_crossed({0, 0, 0}, {0, 0, 4.0}), 1);
  EXPECT_EQ(floors_crossed({0, 0, 0}, {0, 0, 8.0}), 2);
  EXPECT_EQ(floors_crossed({0, 0, 0}, {0, 0, 1.0}), 0);
}

// --- propagation ---

PropagationConfig quiet_config() {
  PropagationConfig config;
  config.shadowing_sigma_db = 0.0;
  config.channel_offset_sigma_db = 0.0;
  config.temporal_fading_sigma_db = 0.0;
  return config;
}

TEST(PropagationTest, PathLossMonotoneInDistance) {
  Propagation prop(quiet_config(), 1);
  double last = 1e9;
  for (double d = 1.0; d <= 100.0; d += 5.0) {
    const double rss = prop.mean_rss_dbm(0.0, NodeId{1}, NodeId{2},
                                         {0, 0, 0}, {d, 0, 0}, 0);
    EXPECT_LT(rss, last);
    last = rss;
  }
}

TEST(PropagationTest, ReferenceLoss) {
  Propagation prop(quiet_config(), 1);
  // At the reference distance the loss equals path_loss_ref_db.
  const double rss = prop.mean_rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                                       {1.0, 0, 0}, 0);
  EXPECT_NEAR(rss, -40.0, 1e-9);
  // One decade further: +10*n dB of loss.
  const double rss10 = prop.mean_rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                                         {10.0, 0, 0}, 0);
  EXPECT_NEAR(rss10, -40.0 - 30.0, 1e-9);
}

TEST(PropagationTest, TxPowerShiftsRss) {
  Propagation prop(quiet_config(), 1);
  const double at0 = prop.mean_rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                                       {20, 0, 0}, 0);
  const double at10 = prop.mean_rss_dbm(10.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                                        {20, 0, 0}, 0);
  EXPECT_NEAR(at10 - at0, 10.0, 1e-9);
}

TEST(PropagationTest, FloorPenetrationLoss) {
  Propagation prop(quiet_config(), 1);
  const double same = prop.mean_rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                                        {10, 0, 0}, 0);
  const double other =
      prop.mean_rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                        {std::sqrt(100.0 - 16.0), 0, 4.0}, 0);
  // Same 3D distance, one floor boundary -> the configured slab loss.
  EXPECT_NEAR(same - other, PropagationConfig{}.floor_penetration_db, 1e-9);
}

TEST(PropagationTest, ShadowingIsSymmetricAndStatic) {
  PropagationConfig config;
  config.shadowing_sigma_db = 6.0;
  config.channel_offset_sigma_db = 0.0;
  config.temporal_fading_sigma_db = 0.0;
  Propagation prop(config, 99);
  const double ab = prop.mean_rss_dbm(0.0, NodeId{3}, NodeId{4}, {0, 0, 0},
                                      {15, 0, 0}, 2);
  const double ba = prop.mean_rss_dbm(0.0, NodeId{4}, NodeId{3}, {15, 0, 0},
                                      {0, 0, 0}, 2);
  EXPECT_DOUBLE_EQ(ab, ba);
  // Repeated queries identical (static draw).
  EXPECT_DOUBLE_EQ(ab, prop.mean_rss_dbm(0.0, NodeId{3}, NodeId{4}, {0, 0, 0},
                                         {15, 0, 0}, 2));
}

TEST(PropagationTest, ChannelOffsetsDifferAcrossChannels) {
  PropagationConfig config;
  config.shadowing_sigma_db = 0.0;
  config.channel_offset_sigma_db = 4.0;
  config.temporal_fading_sigma_db = 0.0;
  Propagation prop(config, 5);
  bool any_diff = false;
  const double base = prop.mean_rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                                        {15, 0, 0}, 0);
  for (PhysicalChannel ch = 1; ch < kNumChannels; ++ch) {
    if (std::abs(prop.mean_rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                                   {15, 0, 0}, ch) -
                 base) > 0.5) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(PropagationTest, TemporalFadingChangesAcrossCoherenceBlocks) {
  PropagationConfig config;
  config.shadowing_sigma_db = 0.0;
  config.channel_offset_sigma_db = 0.0;
  config.temporal_fading_sigma_db = 3.0;
  config.coherence_slots = 100;
  Propagation prop(config, 5);
  const double slot0 = prop.rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                                    {15, 0, 0}, 0, 0);
  const double slot50 = prop.rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                                     {15, 0, 0}, 0, 50);
  const double slot150 = prop.rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                                      {15, 0, 0}, 0, 150);
  EXPECT_DOUBLE_EQ(slot0, slot50);  // same coherence block
  EXPECT_NE(slot0, slot150);        // different block
}

TEST(PropagationTest, FadingStatisticsMatchSigma) {
  PropagationConfig config;
  config.shadowing_sigma_db = 0.0;
  config.channel_offset_sigma_db = 0.0;
  config.temporal_fading_sigma_db = 2.0;
  config.coherence_slots = 1;
  Propagation prop(config, 5);
  const double mean = prop.mean_rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0},
                                        {15, 0, 0}, 0);
  Summary s;
  for (std::uint64_t slot = 0; slot < 5000; ++slot) {
    s.add(prop.rss_dbm(0.0, NodeId{1}, NodeId{2}, {0, 0, 0}, {15, 0, 0}, 0,
                       slot) -
          mean);
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

// --- PRR model ---

TEST(PrrTest, BerAtZeroSinrIsHalf) {
  EXPECT_DOUBLE_EQ(ieee802154_ber(0.0), 0.5);
  EXPECT_DOUBLE_EQ(ieee802154_ber(-1.0), 0.5);
}

TEST(PrrTest, BerMonotoneDecreasing) {
  double last = 1.0;
  for (double db = -5.0; db <= 10.0; db += 0.5) {
    const double ber = ieee802154_ber(std::pow(10.0, db / 10.0));
    EXPECT_LE(ber, last + 1e-12);
    last = ber;
  }
}

TEST(PrrTest, PrrSigmoidShape) {
  // Far below threshold: ~0; far above: ~1.
  EXPECT_LT(ieee802154_prr(-5.0, 110), 0.01);
  EXPECT_GT(ieee802154_prr(10.0, 110), 0.999);
}

TEST(PrrTest, LongerFramesLowerPrr) {
  const double sinr = 2.0;
  EXPECT_GT(ieee802154_prr(sinr, 26), ieee802154_prr(sinr, 110));
}

TEST(PrrTest, TableMatchesExact) {
  PrrTable table(110);
  for (double db = -9.5; db < 19.5; db += 0.37) {
    EXPECT_NEAR(table.prr(db), ieee802154_prr(db, 110), 5e-3) << db;
  }
}

TEST(PrrTest, TableEdges) {
  PrrTable table(110);
  EXPECT_DOUBLE_EQ(table.prr(-20.0), 0.0);
  EXPECT_NEAR(table.prr(25.0), 1.0, 1e-9);
}

// --- jammer ---

TEST(JammerTest, InactiveBeforeStart) {
  JammerConfig config;
  config.start = SimTime{1'000'000};
  config.pattern = JammerPattern::kConstant;
  Jammer jammer(config, 1);
  EXPECT_FALSE(jammer.active(0, 0, SimTime{0}));
  EXPECT_TRUE(jammer.active(0, 200, SimTime{2'000'000}));
}

TEST(JammerTest, MacroDutyCycle) {
  JammerConfig config;
  config.pattern = JammerPattern::kConstant;
  config.on_duration = seconds(static_cast<std::int64_t>(300));
  config.off_duration = seconds(static_cast<std::int64_t>(300));
  Jammer jammer(config, 1);
  EXPECT_TRUE(jammer.active(0, 0, SimTime{0}));
  EXPECT_FALSE(
      jammer.active(0, 40000, SimTime{0} + seconds(static_cast<std::int64_t>(400))));
  EXPECT_TRUE(
      jammer.active(0, 65000, SimTime{0} + seconds(static_cast<std::int64_t>(650))));
}

TEST(JammerTest, WifiPatternAffectsOnlyItsBlock) {
  JammerConfig config;
  config.pattern = JammerPattern::kWifiStreaming;
  config.wifi_block_start = 4;
  Jammer jammer(config, 1);
  int in_block_hits = 0;
  int out_block_hits = 0;
  for (std::uint64_t slot = 0; slot < 2000; ++slot) {
    const SimTime t{static_cast<std::int64_t>(slot) * 10'000};
    if (jammer.active(5, slot, t)) ++in_block_hits;
    if (jammer.active(0, slot, t)) ++out_block_hits;
    if (jammer.active(12, slot, t)) ++out_block_hits;
  }
  EXPECT_GT(in_block_hits, 2000 / 2);  // streaming: most slots hit
  EXPECT_EQ(out_block_hits, 0);
}

TEST(JammerTest, BluetoothHitsAllChannelsSometimes) {
  JammerConfig config;
  config.pattern = JammerPattern::kBluetooth;
  Jammer jammer(config, 1);
  for (PhysicalChannel ch = 0; ch < kNumChannels; ++ch) {
    int hits = 0;
    for (std::uint64_t slot = 0; slot < 1000; ++slot) {
      if (jammer.active(ch, slot, SimTime{0})) ++hits;
    }
    EXPECT_GT(hits, 200) << static_cast<int>(ch);
    EXPECT_LT(hits, 500) << static_cast<int>(ch);
  }
}

TEST(JammerTest, ReceivedPowerFallsWithDistance) {
  JammerConfig config;
  config.position = {0, 0, 0};
  config.tx_power_dbm = 10.0;
  Jammer jammer(config, 1);
  const double near = jammer.received_power_mw({5, 0, 0}, 40, 3.0, 18, 4);
  const double far = jammer.received_power_mw({50, 0, 0}, 40, 3.0, 18, 4);
  EXPECT_GT(near, far);
  EXPECT_GT(far, 0.0);
}

// --- medium ---

Medium make_medium(double spacing, int nodes = 3) {
  MediumConfig config;
  config.propagation = quiet_config();
  std::vector<Position> positions;
  for (int i = 0; i < nodes; ++i) {
    positions.push_back({i * spacing, 0, 0});
  }
  return Medium(config, std::move(positions), 7);
}

TEST(MediumTest, CloseLinkDelivers) {
  Medium medium = make_medium(10.0);
  TransmissionAttempt tx;
  tx.sender = NodeId{0};
  tx.channel = 3;
  tx.frame_bytes = 110;
  tx.tx_power_dbm = 0.0;
  const double p =
      medium.reception_probability(tx, NodeId{1}, 0, SimTime{0}, {});
  EXPECT_GT(p, 0.99);
}

TEST(MediumTest, FarLinkFails) {
  Medium medium = make_medium(200.0);
  TransmissionAttempt tx;
  tx.sender = NodeId{0};
  tx.channel = 3;
  tx.frame_bytes = 110;
  const double p =
      medium.reception_probability(tx, NodeId{1}, 0, SimTime{0}, {});
  EXPECT_DOUBLE_EQ(p, 0.0);
}

TEST(MediumTest, SelfReceptionImpossible) {
  Medium medium = make_medium(10.0);
  TransmissionAttempt tx;
  tx.sender = NodeId{0};
  EXPECT_DOUBLE_EQ(
      medium.reception_probability(tx, NodeId{0}, 0, SimTime{0}, {}), 0.0);
}

TEST(MediumTest, CochannelInterferenceDegrades) {
  // Node 2 sits 4 m from receiver 1 while the wanted sender 0 is 10 m
  // away: SINR ~ -12 dB, so a co-channel transmission wrecks 0->1.
  MediumConfig config;
  config.propagation = quiet_config();
  Medium medium(config, {{0, 0, 0}, {10, 0, 0}, {14, 0, 0}}, 7);
  TransmissionAttempt tx;
  tx.sender = NodeId{0};
  tx.channel = 3;
  tx.frame_bytes = 110;
  TransmissionAttempt other;
  other.sender = NodeId{2};
  other.channel = 3;
  other.frame_bytes = 110;
  const std::vector<TransmissionAttempt> concurrent{tx, other};
  const double clean =
      medium.reception_probability(tx, NodeId{1}, 0, SimTime{0}, {});
  const double interfered = medium.reception_probability(
      tx, NodeId{1}, 0, SimTime{0}, concurrent);
  EXPECT_GT(clean, 0.99);
  EXPECT_LT(interfered, 0.01);
}

TEST(MediumTest, DifferentChannelNoInterference) {
  Medium medium = make_medium(10.0);
  TransmissionAttempt tx;
  tx.sender = NodeId{0};
  tx.channel = 3;
  tx.frame_bytes = 110;
  TransmissionAttempt other;
  other.sender = NodeId{2};
  other.channel = 7;  // different channel
  const std::vector<TransmissionAttempt> concurrent{tx, other};
  const double p = medium.reception_probability(tx, NodeId{1}, 0, SimTime{0},
                                                concurrent);
  EXPECT_GT(p, 0.99);
}

TEST(MediumTest, JammerKillsNearbyLink) {
  Medium medium = make_medium(10.0);
  JammerConfig jam;
  jam.position = {10.0, 2.0, 0};  // right next to receiver 1
  jam.tx_power_dbm = 10.0;
  jam.pattern = JammerPattern::kConstant;
  medium.add_jammer(jam);
  TransmissionAttempt tx;
  tx.sender = NodeId{0};
  tx.channel = 3;
  tx.frame_bytes = 110;
  const double p =
      medium.reception_probability(tx, NodeId{1}, 0, SimTime{0}, {});
  EXPECT_LT(p, 0.01);
}

TEST(MediumTest, JammerBeforeStartHarmless) {
  Medium medium = make_medium(10.0);
  JammerConfig jam;
  jam.position = {10.0, 2.0, 0};
  jam.tx_power_dbm = 10.0;
  jam.pattern = JammerPattern::kConstant;
  jam.start = SimTime{10'000'000};
  medium.add_jammer(jam);
  TransmissionAttempt tx;
  tx.sender = NodeId{0};
  tx.channel = 3;
  tx.frame_bytes = 110;
  EXPECT_GT(medium.reception_probability(tx, NodeId{1}, 0, SimTime{0}, {}),
            0.99);
}

TEST(JammerTest, ConstantPatternCoversAllChannels) {
  JammerConfig config;
  config.pattern = JammerPattern::kConstant;
  Jammer jammer(config, 3);
  for (PhysicalChannel ch = 0; ch < kNumChannels; ++ch) {
    EXPECT_TRUE(jammer.active(ch, 123, SimTime{500'000}));
  }
}

TEST(MediumTest, ClearJammersRestoresLink) {
  Medium medium = make_medium(10.0);
  JammerConfig jam;
  jam.position = {10.0, 2.0, 0};
  jam.tx_power_dbm = 10.0;
  jam.pattern = JammerPattern::kConstant;
  medium.add_jammer(jam);
  TransmissionAttempt tx;
  tx.sender = NodeId{0};
  tx.channel = 3;
  tx.frame_bytes = 110;
  ASSERT_LT(medium.reception_probability(tx, NodeId{1}, 0, SimTime{0}, {}),
            0.01);
  medium.clear_jammers();
  EXPECT_EQ(medium.num_jammers(), 0u);
  EXPECT_GT(medium.reception_probability(tx, NodeId{1}, 0, SimTime{0}, {}),
            0.99);
}

TEST(MediumTest, MultipleJammersAccumulate) {
  Medium medium = make_medium(10.0);
  JammerConfig jam;
  jam.position = {10.0, 30.0, 0};  // 30 m away: individually tolerable
  jam.tx_power_dbm = 0.0;
  jam.pattern = JammerPattern::kConstant;
  TransmissionAttempt tx;
  tx.sender = NodeId{0};
  tx.channel = 3;
  tx.frame_bytes = 110;
  medium.add_jammer(jam);
  const double one = medium.reception_probability(tx, NodeId{1}, 0,
                                                  SimTime{0}, {});
  for (int i = 0; i < 7; ++i) medium.add_jammer(jam);
  const double eight = medium.reception_probability(tx, NodeId{1}, 0,
                                                    SimTime{0}, {});
  EXPECT_LT(eight, one);  // 8x the interference power
}

}  // namespace
}  // namespace digs
