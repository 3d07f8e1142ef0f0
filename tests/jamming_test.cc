// Reactive jamming adversary + SlotSwapper schedule randomization:
//   - JammerConfig / ReactiveJammerConfig construction-time validation,
//   - the reactive jammer's learning loop (histogram -> top-K jam set),
//     its determinism, and the epoch catch-up that keeps the slot engine
//     (which skips idle slots) in lockstep with the polled driver,
//   - per-jammer reachable-cell masks: paper-scale layouts bit-identical
//     to the unmasked sum, city-scale far listeners exactly 0 mW,
//   - SlotSwapper permutation properties across all three suites: accepted
//     permutations stay bijective, keep the installed schedules equal to
//     base-frame-composed-with-permutation, and preserve route precedence;
//     the invariant monitor stays clean through 20 consecutive swap epochs
//     under 40 ppm drift plus a crash/recover fault script,
//   - shard/thread bit-identity with reactive jammers and randomization on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/fault_script.h"
#include "core/invariant_monitor.h"
#include "core/network.h"
#include "phy/jammer.h"
#include "phy/medium.h"
#include "phy/reactive_jammer.h"
#include "sched/conflict_analysis.h"
#include "sched/slot_swapper.h"
#include "testbed/experiment.h"
#include "testbed/layouts.h"

namespace digs {
namespace {

// --- config validation ---

TEST(JammerConfigValidation, WifiBlockStartClampedToValidBlocks) {
  JammerConfig config;
  config.wifi_block_start = 99;
  EXPECT_EQ(sanitize_jammer_config(config).wifi_block_start, 12);
  config.wifi_block_start = -3;
  EXPECT_EQ(sanitize_jammer_config(config).wifi_block_start, 0);
  config.wifi_block_start = 7;
  EXPECT_EQ(sanitize_jammer_config(config).wifi_block_start, 7);
}

TEST(JammerConfigValidation, TxPowerHandledAtConstruction) {
  JammerConfig config;
  config.tx_power_dbm = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(sanitize_jammer_config(config).tx_power_dbm, 10.0);
  config.tx_power_dbm = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(sanitize_jammer_config(config).tx_power_dbm, 10.0);
  config.tx_power_dbm = 500.0;
  EXPECT_DOUBLE_EQ(sanitize_jammer_config(config).tx_power_dbm, 36.0);
  config.tx_power_dbm = -120.0;
  EXPECT_DOUBLE_EQ(sanitize_jammer_config(config).tx_power_dbm, -60.0);
  // Negative dBm is a legitimate weak emitter (the experiment default).
  config.tx_power_dbm = -4.0;
  EXPECT_DOUBLE_EQ(sanitize_jammer_config(config).tx_power_dbm, -4.0);
}

TEST(JammerConfigValidation, NegativeDurationsClampToZero) {
  JammerConfig config;
  config.on_duration = SimDuration{-5};
  config.off_duration = SimDuration{-7};
  const JammerConfig clean = sanitize_jammer_config(config);
  EXPECT_EQ(clean.on_duration.us, 0);
  EXPECT_EQ(clean.off_duration.us, 0);
  // The Jammer itself constructs from the sanitized config.
  Jammer jammer(config, 1);
  EXPECT_EQ(jammer.config().on_duration.us, 0);
}

TEST(JammerConfigValidation, ReactiveConfigSanitized) {
  ReactiveJammerConfig config;
  config.period_slots = 0;
  config.epoch_slots = 0;
  config.top_k = 1'000'000;
  config.tx_power_dbm = std::numeric_limits<double>::quiet_NaN();
  config.sniff_threshold_dbm = std::numeric_limits<double>::quiet_NaN();
  ReactiveJammer jammer(config, 1);
  EXPECT_GE(jammer.config().period_slots, 1);
  EXPECT_GE(jammer.config().epoch_slots, jammer.config().period_slots);
  EXPECT_LE(jammer.config().top_k,
            static_cast<std::uint32_t>(jammer.config().period_slots) * 16u);
  EXPECT_DOUBLE_EQ(jammer.config().tx_power_dbm, 10.0);
  EXPECT_DOUBLE_EQ(jammer.config().sniff_threshold_dbm, -90.0);
}

// --- reactive jammer learning ---

// Feed a synthetic victim: one hot (slot offset, channel offset) pair every
// frame plus background on another pair, over one full learning epoch. The
// next epoch's jam set must contain the hot cells and nothing colder than
// them, identically for two jammers with the same seed.
TEST(ReactiveJammerTest, LearnsHotCellsDeterministically) {
  ReactiveJammerConfig config;
  config.period_slots = 10;
  config.epoch_slots = 40;  // 4 frames per epoch
  config.top_k = 2;
  config.sniff_threshold_dbm = -200.0;  // hears everything fed to it
  ReactiveJammer a(config, 42);
  ReactiveJammer b(config, 42);

  // Victim transmits every frame at slot offset 3 with channel offset 5,
  // and every second frame at slot offset 7 with channel offset 1.
  for (std::uint64_t slot = 0; slot < 80; ++slot) {
    ASSERT_TRUE(a.begin_slot(slot, SimTime{0}));
    ASSERT_TRUE(b.begin_slot(slot, SimTime{0}));
    const std::uint64_t offset = slot % 10;
    if (offset == 3) {
      const auto ch = static_cast<PhysicalChannel>((slot + 5) % 16);
      a.hear(slot, ch);
      b.hear(slot, ch);
    }
    if (offset == 7 && (slot / 10) % 2 == 0) {
      const auto ch = static_cast<PhysicalChannel>((slot + 1) % 16);
      a.hear(slot, ch);
      b.hear(slot, ch);
    }
  }
  EXPECT_GE(a.epochs_completed(), 1u);
  EXPECT_EQ(a.jam_cells(), 2u);
  EXPECT_GT(a.attempts_heard(), 0u);

  // The jam set targets the learned cells: slot offset 3 / channel offset 5
  // at any future frame, i.e. active on channel (slot + 5) % 16 in slots
  // with offset 3. The cold pair (offset 2, channel offset 9) is not hit.
  for (std::uint64_t slot = 80; slot < 90; ++slot) {
    const bool hot = slot % 10 == 3;
    EXPECT_EQ(a.active(static_cast<PhysicalChannel>((slot + 5) % 16), slot,
                       SimTime{0}),
              hot)
        << "slot " << slot;
    EXPECT_FALSE(a.active(static_cast<PhysicalChannel>((slot + 9) % 16), slot,
                          SimTime{0}))
        << "slot " << slot;
    // Same seed + same observations -> identical jam set everywhere.
    for (int ch = 0; ch < kNumChannels; ++ch) {
      EXPECT_EQ(a.active(static_cast<PhysicalChannel>(ch), slot, SimTime{0}),
                b.active(static_cast<PhysicalChannel>(ch), slot, SimTime{0}));
    }
  }
}

// The slot engine skips idle slots, so begin_slot can arrive with gaps
// spanning several epoch boundaries. Catch-up must roll every elapsed
// boundary: a jammer fed a sparse slot sequence agrees with one fed every
// slot (same epochs completed, same jam set), keeping engine and polled
// drivers bit-identical.
TEST(ReactiveJammerTest, EpochCatchUpMatchesStepwiseRollover) {
  ReactiveJammerConfig config;
  config.period_slots = 10;
  config.epoch_slots = 20;
  config.top_k = 3;
  ReactiveJammer dense(config, 9);
  ReactiveJammer sparse(config, 9);

  for (std::uint64_t slot = 0; slot < 100; ++slot) {
    dense.begin_slot(slot, SimTime{0});
    if (slot % 10 == 4) dense.hear(slot, static_cast<PhysicalChannel>(slot % 16));
  }
  // The sparse feed sees only the hearing slots (offset 4), jumping over
  // multiple epoch boundaries between calls.
  for (std::uint64_t slot = 4; slot < 100; slot += 10) {
    sparse.begin_slot(slot, SimTime{0});
    sparse.hear(slot, static_cast<PhysicalChannel>(slot % 16));
  }
  EXPECT_EQ(dense.epochs_completed(), sparse.epochs_completed());
  for (std::uint64_t slot = 100; slot < 120; ++slot) {
    for (int ch = 0; ch < kNumChannels; ++ch) {
      EXPECT_EQ(
          dense.active(static_cast<PhysicalChannel>(ch), slot, SimTime{0}),
          sparse.active(static_cast<PhysicalChannel>(ch), slot, SimTime{0}));
    }
  }
}

// The jam set is the top_k cells in (count descending, seeded hash
// ascending, cell ascending) order. A reference built by a full sort in
// that order, from a histogram the test mirrors (decay included), must
// equal active() on every (slot offset, channel) after each epoch. The
// heard pattern is sparse, so most of the default 423 cells come from the
// hash-ordered tail of tied counts.
TEST(ReactiveJammerTest, JamSetMatchesFullSortReference) {
  const ReactiveJammerConfig config;  // 151-slot period, 1510-slot epochs
  const std::uint64_t seed = 77;
  ReactiveJammer jammer(config, seed);
  const std::size_t period = config.period_slots;
  auto bin = [&](std::uint64_t slot, int channel) {
    const auto choff =
        static_cast<std::size_t>((channel + kNumChannels -
                                  static_cast<int>(slot % kNumChannels)) %
                                 kNumChannels);
    return static_cast<std::size_t>(slot % period) * kNumChannels + choff;
  };
  std::vector<std::uint32_t> histogram(period * kNumChannels, 0);
  std::vector<std::uint8_t> reference(histogram.size(), 0);
  std::uint32_t epoch = 0;
  auto rebuild_reference = [&] {
    ++epoch;
    std::vector<std::uint32_t> order(histogram.size());
    std::iota(order.begin(), order.end(), 0U);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (histogram[a] != histogram[b]) {
                  return histogram[a] > histogram[b];
                }
                const std::uint64_t ha = hash_mix(seed, epoch, a);
                const std::uint64_t hb = hash_mix(seed, epoch, b);
                if (ha != hb) return ha < hb;
                return a < b;
              });
    std::fill(reference.begin(), reference.end(), 0);
    for (std::size_t i = 0; i < config.top_k; ++i) reference[order[i]] = 1;
    for (std::uint32_t& count : histogram) count >>= 1;
  };
  auto expect_matches_reference = [&] {
    ASSERT_EQ(jammer.epochs_completed(), epoch);
    ASSERT_EQ(jammer.jam_cells(), config.top_k);
    std::size_t jammed = 0;
    for (std::uint64_t slot = 0; slot < period; ++slot) {
      for (int ch = 0; ch < kNumChannels; ++ch) {
        const bool active =
            jammer.active(static_cast<PhysicalChannel>(ch), slot, SimTime{0});
        EXPECT_EQ(active, reference[bin(slot, ch)] != 0)
            << "epoch " << epoch << " slot " << slot << " channel " << ch;
        jammed += active ? 1 : 0;
      }
    }
    EXPECT_EQ(jammed, config.top_k);
  };

  const std::uint64_t epoch_slots = config.epoch_slots;
  std::size_t heard_cells = 0;
  for (std::uint64_t slot = 0; slot <= 2 * epoch_slots; ++slot) {
    if (slot > 0 && slot % epoch_slots == 0) rebuild_reference();
    ASSERT_TRUE(jammer.begin_slot(slot, SimTime{0}));
    if (slot > 0 && slot % epoch_slots == 0) expect_matches_reference();
    // Sparse pattern: a few cells with distinct counts, a hot cell heard
    // every frame, and ties between cells heard equally often.
    std::vector<int> heard;
    if (slot % 37 == 5) heard.push_back(static_cast<int>((slot * 7) % 16));
    if (slot % period == 10) heard.push_back(static_cast<int>(slot % 16));
    if (slot % period == 90 || slot % period == 120) {
      heard.push_back(static_cast<int>((slot + 3) % 16));
    }
    for (const int ch : heard) {
      jammer.hear(slot, static_cast<PhysicalChannel>(ch));
      if (histogram[bin(slot, ch)]++ == 0) ++heard_cells;
    }
  }
  EXPECT_EQ(epoch, 2u);
  EXPECT_LT(heard_cells, config.top_k / 4);
}

TEST(ReactiveJammerTest, SilentBeforeStartAndBeforeFirstEpoch) {
  ReactiveJammerConfig config;
  config.period_slots = 10;
  config.epoch_slots = 20;
  config.start = SimTime{5'000'000};  // 5 s
  ReactiveJammer jammer(config, 3);
  // Not yet listening: begin_slot refuses, nothing is ever active.
  EXPECT_FALSE(jammer.begin_slot(0, SimTime{0}));
  EXPECT_FALSE(jammer.active(0, 0, SimTime{0}));
  // Listening but still inside the first (pure learning) epoch.
  EXPECT_TRUE(jammer.begin_slot(600, SimTime{6'000'000}));
  jammer.hear(600, 0);
  EXPECT_EQ(jammer.jam_cells(), 0u);
  EXPECT_FALSE(jammer.active(0, 600, SimTime{6'000'000}));
}

// --- jammer cell masks ---

// Paper-scale deployment (Half Testbed A spans well under 3x3 grid cells):
// the masked jammer_mw must equal the plain unmasked sum over every jammer,
// for every listener — bit-identical, not approximately.
TEST(JammerMaskTest, PaperScaleMatchesUnmaskedSum) {
  const TestbedLayout layout = half_testbed_a();
  MediumConfig config = ExperimentRunner::default_medium_config();
  config.propagation.path_loss_exponent = layout.path_loss_exponent;
  Medium medium(config, layout.positions, 77);
  medium.build_reachability(layout.tx_power_dbm);
  // The reference set: the same constant jammers, built outside the medium
  // (a constant jammer's activity and power do not depend on its seed).
  std::vector<Jammer> jammers;
  for (std::size_t j = 0; j < layout.jammer_positions.size(); ++j) {
    JammerConfig jammer;
    jammer.position = layout.jammer_positions[j];
    jammer.tx_power_dbm = -4.0;
    jammer.pattern = JammerPattern::kConstant;
    medium.add_jammer(jammer);
    jammers.emplace_back(jammer, j);
  }
  const auto& prop = config.propagation;
  for (std::uint16_t i = 0; i < layout.num_nodes(); ++i) {
    const NodeId rx{i};
    double expected = 0.0;
    for (const Jammer& jammer : jammers) {
      if (!jammer.active(0, 17, SimTime{0})) continue;
      expected += jammer.received_power_mw(
          medium.position(rx), prop.path_loss_ref_db,
          prop.path_loss_exponent, prop.floor_penetration_db,
          prop.floor_height_m);
    }
    EXPECT_EQ(medium.jammer_mw(rx, 0, 17, SimTime{0}), expected)
        << "listener " << i;
    EXPECT_GT(expected, 0.0) << "listener " << i;
  }
}

// City-scale deployment with the spatial grid active: a listener beyond the
// jammer's reachable-cell mask receives EXACTLY 0 mW (uncoupled by model
// definition, like far transmitters), while a near listener still gets the
// full path-loss power.
TEST(JammerMaskTest, CityScaleFarListenerContributesExactlyZero) {
  // Corner-to-corner span of ~850 m at a shallow exponent: several grid
  // cells per axis, so the 3x3 coupling cutoff and the jammer masks are
  // genuinely exercised.
  MediumConfig config = ExperimentRunner::default_medium_config();
  config.propagation.path_loss_exponent = 3.5;
  std::vector<Position> positions;
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      positions.push_back({x * 150.0, y * 150.0, 0.0});
    }
  }
  Medium medium(config, positions, 5);
  medium.build_reachability(0.0);
  ASSERT_TRUE(medium.grid().active())
      << "layout too small to activate the spatial grid";

  JammerConfig jammer;
  jammer.position = {0.0, 0.0, 0.0};
  jammer.tx_power_dbm = -4.0;
  jammer.pattern = JammerPattern::kConstant;
  medium.add_jammer(jammer);

  ReactiveJammerConfig sniffer;
  sniffer.position = {0.0, 0.0, 0.0};
  sniffer.tx_power_dbm = -4.0;
  medium.add_reactive_jammer(sniffer);

  const NodeId near{0};      // at the jammer corner
  const NodeId far{24};      // opposite corner, ~850 m away
  const auto& prop = config.propagation;
  EXPECT_EQ(medium.jammer_mw(near, 0, 17, SimTime{0}),
            path_loss_power_mw(jammer.position, medium.position(near), -4.0,
                               prop.path_loss_ref_db,
                               prop.path_loss_exponent,
                               prop.floor_penetration_db,
                               prop.floor_height_m));
  EXPECT_EQ(medium.jammer_mw(far, 0, 17, SimTime{0}), 0.0);
}

// --- SlotSwapper unit properties ---

TEST(SlotSwapperTest, PermutationsStayBijectiveAndPreservePrecedence) {
  SlotSwapperConfig config;
  config.frame_len = 151;
  config.swaps_per_epoch = 48;
  std::vector<PrecedenceEdge> edges;
  // child at offsets {10, 20}, parent forwards at {50, 120}: the base
  // ordering (10 < 120) must survive every accepted permutation.
  edges.push_back({{10, 20}, {50, 120}});
  edges.push_back({{3}, {4}});  // tight pair: rejects most swaps touching it
  SlotSwapper swapper(config);
  for (std::uint64_t epoch = 0; epoch < 12; ++epoch) {
    const std::vector<std::uint16_t>& perm =
        swapper.advance_epoch(epoch, edges);
    EXPECT_TRUE(is_slot_permutation(perm)) << "epoch " << epoch;
    EXPECT_TRUE(permutation_preserves_precedence(perm, edges))
        << "epoch " << epoch;
  }
  EXPECT_EQ(swapper.epochs(), 12u);
  EXPECT_GT(swapper.swaps_applied(), 0u);
  // Different epochs draw different permutations (else there is nothing to
  // randomize): compare two epochs' images of offset 0..150.
  const std::vector<std::uint16_t> last = swapper.permutation();
  const std::vector<std::uint16_t>& prev = swapper.advance_epoch(99, edges);
  EXPECT_NE(last, prev);
}

TEST(SlotSwapperTest, ImpossibleSwapsAreRejectedBounded) {
  // Every adjacent pair is precedence-constrained with zero slack, so any
  // transposition breaks some edge: all candidates must be rejected and
  // the permutation must fall back to identity.
  SlotSwapperConfig config;
  config.frame_len = 8;
  config.swaps_per_epoch = 16;
  config.max_retries = 4;
  std::vector<PrecedenceEdge> edges;
  for (std::uint16_t s = 0; s + 1 < 8; ++s) edges.push_back({{s}, {static_cast<std::uint16_t>(s + 1)}});
  SlotSwapper swapper(config);
  const std::vector<std::uint16_t>& perm = swapper.advance_epoch(0, edges);
  std::vector<std::uint16_t> identity(8);
  for (std::uint16_t s = 0; s < 8; ++s) identity[s] = s;
  EXPECT_EQ(perm, identity);
  EXPECT_EQ(swapper.swaps_applied(), 0u);
  // Bounded retries: at most swaps_per_epoch * max_retries rejections.
  EXPECT_LE(swapper.swaps_rejected(), 16u * 4u);
  EXPECT_GT(swapper.swaps_rejected(), 0u);
}

// --- network-level randomization properties ---

ExperimentConfig randomized_config(ProtocolSuite suite, std::uint64_t seed) {
  ExperimentConfig config;
  config.suite = suite;
  config.seed = seed;
  config.num_flows = 4;
  config.warmup = seconds(std::int64_t{60});
  config.duration = seconds(std::int64_t{60});
  config.stat_drain = seconds(std::int64_t{10});
  config.randomize_schedule = true;
  config.randomize_epoch = seconds(std::int64_t{15});
  config.randomize_seed = seed;
  config.monitor_invariants = true;
  return config;
}

// Across all three suites and two seeds: the network's epoch permutation is
// a bijection over the application slotframe, every installed application
// slotframe equals the scheduler's base frame composed with it, traffic
// still flows, and the invariant monitor records no schedule conflicts at
// any swap epoch.
TEST(ScheduleRandomizationTest, PermutationPropertiesAcrossSuites) {
  for (const ProtocolSuite suite :
       {ProtocolSuite::kDigs, ProtocolSuite::kOrchestra,
        ProtocolSuite::kWirelessHart}) {
    for (const std::uint64_t seed : {1ull, 12ull}) {
      const TestbedLayout layout = half_testbed_a();
      ExperimentRunner runner(layout, randomized_config(suite, seed));
      const ExperimentResult result = runner.run();
      Network& net = runner.network();

      EXPECT_GE(result.swap_epochs, 2u) << to_string(suite);
      EXPECT_GT(result.swaps_applied, 0u) << to_string(suite);
      EXPECT_GT(result.overall_pdr, 0.5) << to_string(suite);

      const std::vector<std::uint16_t>& perm = net.app_slot_permutation();
      ASSERT_FALSE(perm.empty()) << to_string(suite);
      EXPECT_TRUE(is_slot_permutation(perm)) << to_string(suite);

      // Installed schedule == base schedule with remapped slot offsets,
      // for every alive node holding an application frame.
      for (std::uint16_t i = 0; i < net.size(); ++i) {
        const Node& node = net.node(NodeId{i});
        if (!node.alive()) continue;
        const Slotframe* installed =
            node.mac().schedule().slotframe(TrafficClass::kApplication);
        const Slotframe& base = node.base_app_slotframe();
        if (installed == nullptr || base.cells.empty()) continue;
        ASSERT_EQ(installed->cells.size(), base.cells.size());
        ASSERT_EQ(base.length, perm.size());
        for (std::size_t c = 0; c < base.cells.size(); ++c) {
          Cell expected = base.cells[c];
          expected.slot_offset = perm[expected.slot_offset];
          EXPECT_EQ(installed->cells[c], expected)
              << to_string(suite) << " node " << i << " cell " << c;
        }
      }

      // Monitor: every swap epoch audited, none dirty, and no schedule
      // conflicts anywhere in the run.
      EXPECT_EQ(result.swap_epoch_audits, result.swap_epochs)
          << to_string(suite);
      EXPECT_EQ(result.swap_epoch_violations, 0u) << to_string(suite);
      if (result.swap_epoch_violations != 0) {
        for (const InvariantViolation& v :
             net.invariant_monitor()->violations()) {
          std::cerr << "violation " << to_string(v.kind) << " node "
                    << v.node.value << " other " << v.other.value << " at "
                    << v.at.us << "\n";
        }
      }
      const NetworkInvariantMonitor* monitor = net.invariant_monitor();
      ASSERT_NE(monitor, nullptr);
      EXPECT_EQ(monitor->count(InvariantKind::kScheduleConflict), 0u)
          << to_string(suite);
    }
  }
}

// Tunnel cells ride the same permutation: with multipath tunnels and a
// closed-loop control workload on, every installed tunnel cell must equal
// its base-frame counterpart with the slot offset remapped through the
// epoch permutation, and the monitor's tunnel invariants — loop-freedom,
// disjointness honesty, and replication conflict-freedom evaluated in the
// PERMUTED frame — must stay clean through every swap epoch.
TEST(ScheduleRandomizationTest, TunnelCellsSurviveSwapEpochs) {
  ExperimentConfig config = randomized_config(ProtocolSuite::kDigs, 17);
  config.enable_tunnels = true;
  config.control_loops = 2;
  const TestbedLayout layout = half_testbed_a();
  ExperimentRunner runner(layout, config);
  const ExperimentResult result = runner.run();
  Network& net = runner.network();

  EXPECT_GE(result.swap_epochs, 2u);
  EXPECT_GT(result.swaps_applied, 0u);
  EXPECT_EQ(result.swap_epoch_audits, result.swap_epochs);
  EXPECT_EQ(result.swap_epoch_violations, 0u);

  const std::vector<std::uint16_t>& perm = net.app_slot_permutation();
  ASSERT_FALSE(perm.empty());
  std::size_t tunnel_cells = 0;
  for (std::uint16_t i = 0; i < net.size(); ++i) {
    const Node& node = net.node(NodeId{i});
    if (!node.alive()) continue;
    const Slotframe* installed =
        node.mac().schedule().slotframe(TrafficClass::kApplication);
    const Slotframe& base = node.base_app_slotframe();
    if (installed == nullptr || base.cells.empty()) continue;
    ASSERT_EQ(installed->cells.size(), base.cells.size());
    for (std::size_t c = 0; c < base.cells.size(); ++c) {
      if (!base.cells[c].tunnel) continue;
      ++tunnel_cells;
      Cell expected = base.cells[c];
      expected.slot_offset = perm[expected.slot_offset];
      EXPECT_EQ(installed->cells[c], expected) << "node " << i << " cell "
                                               << c;
    }
  }
  EXPECT_GT(tunnel_cells, 0u);

  const NetworkInvariantMonitor* monitor = net.invariant_monitor();
  ASSERT_NE(monitor, nullptr);
  EXPECT_EQ(monitor->count(InvariantKind::kTunnelLoop), 0u);
  EXPECT_EQ(monitor->count(InvariantKind::kTunnelDisjoint), 0u);
  EXPECT_EQ(monitor->count(InvariantKind::kTunnelConflict), 0u);
  EXPECT_EQ(monitor->count(InvariantKind::kScheduleConflict), 0u);
}

// 20 consecutive swap epochs under 40 ppm oscillator drift plus a
// crash/recover fault script: the monitor must stay clean through every
// epoch (the reinstall path handles mid-run topology changes and drifted
// clocks without transient conflicts).
TEST(ScheduleRandomizationTest, TwentyEpochsUnderDriftAndFaults) {
  ExperimentConfig config = randomized_config(ProtocolSuite::kDigs, 21);
  config.randomize_epoch = seconds(std::int64_t{8});
  config.warmup = seconds(std::int64_t{60});
  config.duration = seconds(std::int64_t{110});  // 170 s total > 20 epochs
  config.clock_ppm = 40.0;
  config.faults.crash_cycle(seconds(std::int64_t{10}), NodeId{9},
                            seconds(std::int64_t{15}),
                            seconds(std::int64_t{25}), 2);
  const TestbedLayout layout = half_testbed_a();
  ExperimentRunner runner(layout, config);
  const ExperimentResult result = runner.run();
  EXPECT_GE(result.swap_epochs, 20u);
  EXPECT_EQ(result.swap_epoch_audits, result.swap_epochs);
  EXPECT_EQ(result.swap_epoch_violations, 0u);
  EXPECT_EQ(result.revivals, 2u);
  EXPECT_GT(result.overall_pdr, 0.5);
}

// --- shard/thread bit-identity with the full adversary + defense stack ---

struct JamSnapshot {
  ExperimentResult result;
  std::vector<std::uint16_t> perm;
};

JamSnapshot run_jammed(std::size_t shards, std::size_t threads) {
  ExperimentConfig config = randomized_config(ProtocolSuite::kDigs, 31);
  config.monitor_invariants = false;  // the monitor unshards node regions
  config.num_reactive_jammers = 2;
  config.jammer_start_after = seconds(std::int64_t{0});
  config.shards = shards;
  config.shard_threads = threads;
  ExperimentRunner runner(TestbedLayout{half_testbed_a()}, config);
  JamSnapshot snap;
  snap.result = runner.run();
  snap.perm = runner.network().app_slot_permutation();
  return snap;
}

TEST(JammingShardInvarianceTest, ReactiveJammerAndRandomizationBitIdentical) {
  const JamSnapshot serial = run_jammed(1, 1);
  // The adversary heard something and hit something; randomization ran.
  EXPECT_GT(serial.result.victim_tx_attempts, 0u);
  EXPECT_GT(serial.result.swap_epochs, 0u);
  for (const auto& [shards, threads] :
       {std::pair<std::size_t, std::size_t>{2, 2},
        std::pair<std::size_t, std::size_t>{4, 4}}) {
    const JamSnapshot sharded = run_jammed(shards, threads);
    EXPECT_EQ(sharded.result.generated, serial.result.generated);
    EXPECT_EQ(sharded.result.delivered, serial.result.delivered);
    EXPECT_EQ(sharded.result.flow_pdrs, serial.result.flow_pdrs);
    EXPECT_EQ(sharded.result.victim_tx_attempts,
              serial.result.victim_tx_attempts);
    EXPECT_EQ(sharded.result.victim_tx_jammed,
              serial.result.victim_tx_jammed);
    EXPECT_EQ(sharded.result.swap_epochs, serial.result.swap_epochs);
    EXPECT_EQ(sharded.result.swaps_applied, serial.result.swaps_applied);
    EXPECT_EQ(sharded.result.swaps_rejected, serial.result.swaps_rejected);
    EXPECT_EQ(sharded.perm, serial.perm);
  }
}

}  // namespace
}  // namespace digs
