// Shard- and thread-count invariance: every (shards, threads) combination
// must be BIT-IDENTICAL to the serial run.
//
// The sharded slot pipeline runs settle+plan, reception resolution,
// deliver+outcomes, energy+end_slot, and wake refresh per shard, but every
// per-pair draw is hashed from (seed, asn, listener, sender), shards write
// disjoint per-node state, and every hook or simulator side effect raised
// inside a parallel region is deferred and replayed in serial program
// order after the barrier — so PDR, energy, desync, and every other
// observable must match exactly (no tolerances) across the full
// {1, 2, 8} shards x {1, 2, 4} worker-threads matrix, including under a
// fault script with clock drift enabled. Also pins that a deployment wide
// enough to activate the spatial grid stays invariant with cell-based
// shard assignment, and that malformed shard settings are rejected rather
// than clamped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/fault_script.h"
#include "testbed/experiment.h"
#include "testbed/layouts.h"
#include "scoped_env.h"
#include "test_layouts.h"

namespace digs {
namespace {

struct RunSnapshot {
  ExperimentResult result;
  std::uint64_t final_asn{0};
  std::vector<std::uint64_t> data_tx_attempts;
  std::vector<std::uint64_t> eb_sent;
  std::vector<double> energy_mj;
};

ExperimentConfig small_config(ProtocolSuite suite, std::uint64_t seed) {
  ExperimentConfig config;
  config.suite = suite;
  config.seed = seed;
  config.num_flows = 4;
  config.warmup = seconds(std::int64_t{60});
  config.duration = seconds(std::int64_t{60});
  config.stat_drain = seconds(std::int64_t{10});
  config.num_jammers = 0;
  return config;
}

RunSnapshot run_once(const TestbedLayout& layout, ExperimentConfig config,
                     std::size_t shards, std::size_t threads = 1) {
  config.shards = shards;
  config.shard_threads = threads;
  ExperimentRunner runner(layout, config);
  RunSnapshot snap;
  snap.result = runner.run();
  Network& net = runner.network();
  EXPECT_EQ(net.num_shards(), shards);
  // Worker count is clamped to [1, shards] (and pinned to 1 unsharded):
  // requesting more threads than shards must degrade gracefully, never
  // spawn idle workers.
  EXPECT_EQ(net.num_shard_threads(),
            shards > 1 ? std::min(threads, shards) : 1);
  snap.final_asn = net.current_asn();
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Node& node = net.node(NodeId{static_cast<std::uint16_t>(i)});
    snap.data_tx_attempts.push_back(node.mac().data_tx_attempts());
    snap.eb_sent.push_back(node.mac().eb_sent());
    snap.energy_mj.push_back(node.meter().energy_mj());
  }
  return snap;
}

void expect_identical(const RunSnapshot& sharded, const RunSnapshot& serial) {
  EXPECT_EQ(sharded.final_asn, serial.final_asn);
  EXPECT_EQ(sharded.result.generated, serial.result.generated);
  EXPECT_EQ(sharded.result.delivered, serial.result.delivered);
  EXPECT_EQ(sharded.result.flow_pdrs, serial.result.flow_pdrs);
  EXPECT_EQ(sharded.result.latencies_ms, serial.result.latencies_ms);
  EXPECT_EQ(sharded.result.overall_pdr, serial.result.overall_pdr);
  EXPECT_EQ(sharded.data_tx_attempts, serial.data_tx_attempts);
  EXPECT_EQ(sharded.eb_sent, serial.eb_sent);
  EXPECT_EQ(sharded.result.join_times_s, serial.result.join_times_s);
  // Bit-identical means exactly equal — EXPECT_DOUBLE_EQ's 4-ULP tolerance
  // would mask accumulation-order drift in a racy merge.
  EXPECT_EQ(sharded.energy_mj, serial.energy_mj);
  EXPECT_EQ(sharded.result.duty_cycle, serial.result.duty_cycle);
  EXPECT_EQ(sharded.result.guard_misses, serial.result.guard_misses);
  EXPECT_EQ(sharded.result.desync_events, serial.result.desync_events);
  EXPECT_EQ(sharded.result.clock_corrections, serial.result.clock_corrections);
}

using testing_layouts::city_layout;

class ShardInvariance
    : public ::testing::TestWithParam<std::tuple<ProtocolSuite, std::uint64_t>> {
};

TEST_P(ShardInvariance, BitIdenticalAcrossShardAndThreadMatrix) {
  const auto [suite, seed] = GetParam();
  const ExperimentConfig config = small_config(suite, seed);
  const TestbedLayout layout = half_testbed_a();
  const RunSnapshot serial = run_once(layout, config, 1, 1);
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      if (shards == 1 && threads == 1) continue;  // the reference itself
      const RunSnapshot sharded = run_once(layout, config, shards, threads);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      expect_identical(sharded, serial);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SuitesAndSeeds, ShardInvariance,
    ::testing::Combine(::testing::Values(ProtocolSuite::kDigs,
                                         ProtocolSuite::kOrchestra,
                                         ProtocolSuite::kWirelessHart),
                       ::testing::Values(std::uint64_t{11},
                                         std::uint64_t{12})),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// The hard case: guard misses and desyncs (clock drift) plus crash/recover
// and blackout faults, resolved in parallel. Guard misses are counted
// per shard and summed; the totals and every downstream metric must still
// match the serial run exactly.
TEST(ShardInvarianceFaultsAndDrift, BitIdenticalUnderFaultScript) {
  ExperimentConfig config = small_config(ProtocolSuite::kDigs, 9);
  config.clock_ppm = 40.0;
  config.clock_walk_ppm = 5.0;
  config.faults.crash_cycle(seconds(std::int64_t{10}), NodeId{6},
                            seconds(std::int64_t{15}),
                            seconds(std::int64_t{20}), 2);
  config.faults.blackout(seconds(std::int64_t{20}), NodeId{2}, NodeId{7},
                         seconds(std::int64_t{25}));
  const TestbedLayout layout = half_testbed_a();
  const RunSnapshot serial = run_once(layout, config, 1, 1);
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      if (shards == 1 && threads == 1) continue;
      const RunSnapshot sharded = run_once(layout, config, shards, threads);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      expect_identical(sharded, serial);
    }
  }
  // The drift path actually engaged.
  EXPECT_GT(serial.result.clock_corrections, 0u);
}

// Active spatial grid (multi-cell deployment, cell-based shard assignment,
// coupling cutoff pruning real pairs): still bit-identical across shard
// counts.
TEST(ShardInvarianceCityGrid, BitIdenticalWithActiveGrid) {
  ExperimentConfig config = small_config(ProtocolSuite::kDigs, 3);
  config.num_flows = 8;
  const TestbedLayout layout = city_layout();
  const RunSnapshot serial = run_once(layout, config, 1);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const RunSnapshot sharded = run_once(layout, config, 4, threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(sharded, serial);
  }
  // The scenario is not degenerate: traffic flows.
  EXPECT_GT(serial.result.delivered, 0u);
}

// --- malformed shard settings are rejected, not clamped ---

using testing_env::ScopedEnv;

std::size_t built_shards(std::size_t shards, std::size_t threads = 0) {
  ExperimentConfig config = small_config(ProtocolSuite::kDigs, 1);
  config.shards = shards;
  config.shard_threads = threads;
  ExperimentRunner runner(half_testbed_a(), config);
  return runner.network().num_shards();
}

TEST(ShardSettings, MalformedEnvironmentValuesThrow) {
  for (const char* name : {"DIGS_SHARDS", "DIGS_SHARD_THREADS"}) {
    for (const char* value : {"-1", "100", "65", "abc", "4x", " 4", "+4"}) {
      const ScopedEnv env(name, value);
      SCOPED_TRACE(std::string(name) + "=" + value);
      // Zero settings read the environment; the thread count is validated
      // at every shard count, one included. A bad value throws, not clamps.
      EXPECT_THROW(built_shards(0, 0), std::invalid_argument);
      if (std::string(name) == "DIGS_SHARD_THREADS") {
        EXPECT_THROW(built_shards(2, 0), std::invalid_argument);
      }
    }
  }
}

TEST(ShardSettings, WellFormedEnvironmentValuesAreRead) {
  {
    const ScopedEnv env("DIGS_SHARDS", "4");
    EXPECT_EQ(built_shards(0), 4u);
  }
  {
    const ScopedEnv env("DIGS_SHARDS", "64");
    EXPECT_EQ(built_shards(0), 64u);
  }
  {
    const ScopedEnv env("DIGS_SHARDS", "");  // empty reads as unset
    EXPECT_EQ(built_shards(0), 1u);
  }
  {
    const ScopedEnv env("DIGS_SHARDS", "0");
    EXPECT_EQ(built_shards(0), 1u);
  }
}

TEST(ShardSettings, ConfigAboveLimitThrows) {
  EXPECT_EQ(built_shards(64), 64u);
  EXPECT_THROW(built_shards(65), std::invalid_argument);
  EXPECT_THROW(built_shards(2, 65), std::invalid_argument);
  // Within the limit, more threads than shards still clamps to the shards.
  EXPECT_EQ(built_shards(2, 64), 2u);
}

}  // namespace
}  // namespace digs
