// Golden digests: checked-in fingerprints of whole-run behaviour.
//
// Each config runs a full experiment and hashes every ExperimentResult
// field (FNV-1a over the bit patterns of the doubles, vectors
// length-prefixed), the final ASN, and each node's data-frame attempts,
// EB count and radio energy. The digest must equal the checked-in value
// under three drivers: the slot engine at 1 shard, the slot engine at
// 4 shards x 2 worker threads, and the polled reference loop. A refactor
// that claims to change nothing is shown to change nothing by these
// passing unchanged.
//
// The digests are regenerated only when behaviour changes on purpose, and
// the change that regenerates them says why. A mismatch prints the new
// digest in hex.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_script.h"
#include "testbed/experiment.h"
#include "testbed/layouts.h"
#include "test_layouts.h"

namespace digs {
namespace {

/// FNV-1a over 64-bit words, byte by byte.
class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void vec(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xCBF29CE484222325ULL};
};

void hash_result(Fnv1a& d, const ExperimentResult& r) {
  d.f64(r.overall_pdr);
  d.vec(r.flow_pdrs);
  d.vec(r.latencies_ms);
  d.f64(r.energy_per_delivered_mj);
  d.f64(r.duty_cycle);
  d.f64(r.duty_cycle_per_delivered);
  d.u64(r.delivered);
  d.u64(r.generated);
  d.vec(r.repair_times_s);
  d.vec(r.join_times_s);
  d.vec(r.full_join_times_s);
  d.u64(r.flow_ids.size());
  for (const FlowId id : r.flow_ids) d.u64(id.value);
  d.u64(r.revivals);
  d.vec(r.rejoin_times_s);
  d.u64(r.fault_dips.size());
  for (const ExperimentResult::FaultDip& dip : r.fault_dips) {
    d.f64(dip.at_s);
    d.f64(dip.depth);
    d.f64(dip.duration_s);
  }
  d.u64(r.stale_route_drops);
  d.u64(r.invariant_violations);
  d.u64(r.victim_tx_attempts);
  d.u64(r.victim_tx_jammed);
  d.f64(r.jam_slot_hit_rate);
  d.u64(r.swap_epochs);
  d.u64(r.swaps_applied);
  d.u64(r.swaps_rejected);
  d.u64(r.swap_epoch_audits);
  d.u64(r.swap_epoch_violations);
  d.f64(r.control_cost);
  d.u64(r.actuations);
  d.u64(r.actuation_deadline_misses);
  d.vec(r.sensor_actuator_latencies_ms);
  d.f64(r.p999_sensor_actuator_ms);
  d.u64(r.replication_wins);
  d.u64(r.replication_losses);
  d.u64(r.duplicates_suppressed);
  d.u64(r.single_path_fallbacks);
  d.u64(r.tunnel_rebuilds);
  d.vec(r.tunnel_repair_times_s);
  d.u64(r.tunnel_violations);
  d.u64(r.desync_events);
  d.u64(r.guard_misses);
  d.u64(r.keepalives_sent);
  d.u64(r.clock_corrections);
}

enum class Driver { kEngine1Shard, kEngine4x2, kPolled };

const char* to_string(Driver driver) {
  switch (driver) {
    case Driver::kEngine1Shard:
      return "engine 1 shard";
    case Driver::kEngine4x2:
      return "engine 4 shards x 2 threads";
    case Driver::kPolled:
      return "polled";
  }
  return "?";
}

std::uint64_t run_digest(const TestbedLayout& layout, ExperimentConfig config,
                         Driver driver) {
  config.use_slot_engine = driver != Driver::kPolled;
  config.shards = driver == Driver::kEngine4x2 ? 4 : 1;
  config.shard_threads = driver == Driver::kEngine4x2 ? 2 : 1;
  ExperimentRunner runner(layout, config);
  const ExperimentResult result = runner.run();
  Network& net = runner.network();
  Fnv1a d;
  hash_result(d, result);
  d.u64(net.current_asn());
  d.u64(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Node& node = net.node(NodeId{static_cast<std::uint16_t>(i)});
    d.u64(node.mac().data_tx_attempts());
    d.u64(node.mac().eb_sent());
    d.f64(node.meter().energy_mj());
  }
  return d.value();
}

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

/// Every fault and defence at once: a relay crash cycle, a link blackout,
/// 40 ppm drift, SlotSwapper epochs, tunnels with two control loops, a
/// reactive jammer and the invariant monitor.
ExperimentConfig composed_config() {
  ExperimentConfig config = small_config(ProtocolSuite::kDigs, 7);
  config.warmup = seconds(std::int64_t{90});
  config.duration = seconds(std::int64_t{120});
  config.faults.crash_cycle(seconds(std::int64_t{20}), NodeId{10},
                            seconds(std::int64_t{20}),
                            seconds(std::int64_t{30}), 2);
  config.faults.blackout(seconds(std::int64_t{30}), NodeId{2}, NodeId{7},
                         seconds(std::int64_t{25}));
  config.clock_ppm = 40.0;
  config.randomize_schedule = true;
  config.randomize_epoch = seconds(std::int64_t{15});
  config.enable_tunnels = true;
  config.control_loops = 2;
  config.control_period = seconds(std::int64_t{2});
  config.num_reactive_jammers = 1;
  config.jammer_start_after = seconds(std::int64_t{0});
  config.monitor_invariants = true;
  return config;
}

ExperimentConfig city_config() {
  ExperimentConfig config = small_config(ProtocolSuite::kDigs, 3);
  config.num_flows = 8;
  return config;
}

/// The ext_downlink relay-crash smoke shape: replicated tunnels under two
/// control loops, SlotSwapper epochs and tunnel-relay strikes, monitor off
/// so the node regions run sharded. Its duplicate suppressions and
/// replication wins/losses are raised inside those regions.
ExperimentConfig downlink_sharded_config() {
  ExperimentConfig config;
  config.suite = ProtocolSuite::kDigs;
  config.seed = 53'000;
  config.num_flows = 4;
  config.warmup = seconds(std::int64_t{120});
  config.duration = seconds(std::int64_t{90});
  config.enable_tunnels = true;
  config.tunnel_replication = true;
  config.control_loops = 2;
  config.control_period = seconds(std::int64_t{2});
  config.control_deadline = seconds(std::int64_t{5});
  config.randomize_schedule = true;
  config.randomize_epoch = seconds(std::int64_t{30});
  config.crash_tunnel_relay_after = seconds(std::int64_t{60});
  config.crash_tunnel_relay_downtime = seconds(std::int64_t{30});
  config.crash_tunnel_relay_cycles = 3;
  config.monitor_invariants = false;
  return config;
}

/// The Orchestra suite through crashes and revivals: a relay crash cycle,
/// an access-point crash and recovery, a link blackout, 40 ppm drift, a
/// reactive jammer and SlotSwapper epochs, monitor off so the RPL
/// baseline's power-down, restart and failover run inside sharded node
/// regions.
ExperimentConfig orchestra_churn_config() {
  ExperimentConfig config = small_config(ProtocolSuite::kOrchestra, 11);
  config.warmup = seconds(std::int64_t{90});
  config.duration = seconds(std::int64_t{120});
  config.faults.crash_cycle(seconds(std::int64_t{20}), NodeId{10},
                            seconds(std::int64_t{20}),
                            seconds(std::int64_t{30}), 2);
  config.faults.blackout(seconds(std::int64_t{30}), NodeId{2}, NodeId{7},
                         seconds(std::int64_t{25}));
  config.faults.crash(seconds(std::int64_t{40}), NodeId{0});
  config.faults.recover(seconds(std::int64_t{70}), NodeId{0});
  config.clock_ppm = 40.0;
  config.num_reactive_jammers = 1;
  config.jammer_start_after = seconds(std::int64_t{0});
  config.randomize_schedule = true;
  config.randomize_epoch = seconds(std::int64_t{15});
  config.monitor_invariants = false;
  return config;
}

/// DiGS on the city grid through crashes, a revival storm and a clock jump:
/// the only golden case whose nodes rescan on a grid where the spatial
/// filter is active, so scanners are coupled to some frames and not to
/// others. A relay crash cycle, an access-point crash and recovery, a
/// 5 ms clock jump and 40 ppm drift; monitor off so the node regions run
/// sharded.
ExperimentConfig city_churn_config() {
  ExperimentConfig config = small_config(ProtocolSuite::kDigs, 5);
  config.num_flows = 8;
  config.duration = seconds(std::int64_t{90});
  config.faults.crash_cycle(seconds(std::int64_t{10}), NodeId{64},
                            seconds(std::int64_t{20}),
                            seconds(std::int64_t{20}), 2);
  config.faults.crash(seconds(std::int64_t{15}), NodeId{1});
  config.faults.recover(seconds(std::int64_t{50}), NodeId{1});
  config.faults.clock_jump(seconds(std::int64_t{5}), NodeId{30}, 5000.0);
  config.clock_ppm = 40.0;
  config.monitor_invariants = false;
  return config;
}

struct GoldenCase {
  std::string name;
  TestbedLayout layout;
  ExperimentConfig config;
  std::uint64_t digest;
};

std::vector<GoldenCase> golden_cases() {
  const TestbedLayout half = half_testbed_a();
  const TestbedLayout city = testing_layouts::city_layout();
  return {
      {"digs_seed11", half, small_config(ProtocolSuite::kDigs, 11),
       0xB4CC3DE36C02EECFULL},
      {"digs_seed12", half, small_config(ProtocolSuite::kDigs, 12),
       0x776730EB517E1F5CULL},
      {"orchestra_seed11", half, small_config(ProtocolSuite::kOrchestra, 11),
       0xBB24DFFC0D17E26DULL},
      {"orchestra_seed12", half, small_config(ProtocolSuite::kOrchestra, 12),
       0xA4F9DF1038CE7FB0ULL},
      {"wirelesshart_seed11", half,
       small_config(ProtocolSuite::kWirelessHart, 11), 0x66895352845A7BFAULL},
      {"wirelesshart_seed12", half,
       small_config(ProtocolSuite::kWirelessHart, 12), 0xC9AC69484C1BD493ULL},
      {"composed", half, composed_config(), 0xDF5B21811E9EFB0BULL},
      {"city", city, city_config(), 0x9F55C713C823F092ULL},
      {"downlink_sharded", half, downlink_sharded_config(),
       0x7D24C81947EBDD03ULL},
      {"orchestra_churn", half, orchestra_churn_config(),
       0x218DDBC7F644C98FULL},
      {"city_churn", city, city_churn_config(), 0x57CC6391775FE83BULL},
  };
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llX",
                static_cast<unsigned long long>(v));
  return buf;
}

class GoldenDigest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenDigest, MatchesCheckedInDigestUnderEveryDriver) {
  const GoldenCase golden = golden_cases()[GetParam()];
  for (const Driver driver :
       {Driver::kEngine1Shard, Driver::kEngine4x2, Driver::kPolled}) {
    const std::uint64_t digest =
        run_digest(golden.layout, golden.config, driver);
    EXPECT_EQ(hex(digest), hex(golden.digest))
        << golden.name << " under " << to_string(driver);
  }
}

// The composed config pins something only if every feature it names
// actually engages within its window.
TEST(GoldenDigestCoverage, ComposedRunEngagesEveryFeature) {
  ExperimentConfig config = composed_config();
  config.shards = 1;
  ExperimentRunner runner(half_testbed_a(), config);
  const ExperimentResult result = runner.run();
  EXPECT_GT(result.delivered, 0u);
  EXPECT_EQ(result.revivals, 2u);
  EXPECT_FALSE(result.fault_dips.empty());
  EXPECT_GT(result.clock_corrections, 0u);
  EXPECT_GE(result.swap_epochs, 2u);
  EXPECT_EQ(result.swap_epoch_audits, result.swap_epochs);
  EXPECT_GT(result.actuations, 0u);
  EXPECT_GT(result.tunnel_rebuilds, 0u);
  EXPECT_GT(result.victim_tx_attempts, 0u);
  EXPECT_NE(runner.network().invariant_monitor(), nullptr);
}

// The downlink_sharded digest pins the replication counters only if the
// duplicate / replication-loss path actually runs, inside sharded regions.
TEST(GoldenDigestCoverage, DownlinkShardedRunCountsReplication) {
  ExperimentConfig config = downlink_sharded_config();
  config.shards = 4;
  config.shard_threads = 2;
  ExperimentRunner runner(half_testbed_a(), config);
  const ExperimentResult result = runner.run();
  EXPECT_EQ(runner.network().num_shards(), 4u);
  EXPECT_EQ(runner.network().invariant_monitor(), nullptr);
  EXPECT_GT(result.replication_wins, 0u);
  EXPECT_GT(result.replication_losses, 0u);
  EXPECT_GT(result.duplicates_suppressed, 0u);
}

// The orchestra_churn digest pins the RPL crash/recover path only if every
// revival happens, with the node regions sharded.
TEST(GoldenDigestCoverage, OrchestraChurnRunRevivesNodesSharded) {
  ExperimentConfig config = orchestra_churn_config();
  config.shards = 4;
  config.shard_threads = 2;
  ExperimentRunner runner(half_testbed_a(), config);
  const ExperimentResult result = runner.run();
  EXPECT_EQ(runner.network().num_shards(), 4u);
  EXPECT_EQ(runner.network().invariant_monitor(), nullptr);
  EXPECT_EQ(result.revivals, 3u);
  EXPECT_GT(result.delivered, 0u);
}

// The city_churn digest pins scanner re-entry on the active grid only if
// every revival happens and some node desyncs, with the node regions
// sharded.
TEST(GoldenDigestCoverage, CityChurnRescansSharded) {
  ExperimentConfig config = city_churn_config();
  config.shards = 4;
  config.shard_threads = 2;
  ExperimentRunner runner(testing_layouts::city_layout(), config);
  const ExperimentResult result = runner.run();
  EXPECT_EQ(runner.network().num_shards(), 4u);
  EXPECT_EQ(runner.network().invariant_monitor(), nullptr);
  EXPECT_EQ(result.revivals, 3u);
  EXPECT_GT(result.desync_events, 0u);
  EXPECT_GT(result.delivered, 0u);
}

// Whole-run ledgers over every golden case, on the slot engine at one
// shard: packets and radio time must each be accounted for.
class GoldenLedger : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    golden_ = golden_cases()[GetParam()];
    ExperimentConfig config = golden_.config;
    config.use_slot_engine = true;
    config.shards = 1;
    config.shard_threads = 1;
    runner_ = std::make_unique<ExperimentRunner>(golden_.layout, config);
    runner_->run();
  }

  GoldenCase golden_;
  std::unique_ptr<ExperimentRunner> runner_;
};

// A packet that was neither delivered nor dropped must still sit in some
// node's application queue. Replicated tunnel copies can sit in two queues,
// so the count is exact only with tunnels off.
TEST_P(GoldenLedger, EveryPacketIsAccounted) {
  const Network& net = runner_->network();
  std::uint64_t unresolved = 0;
  for (const FlowRecord& flow : net.stats().flows()) {
    for (const PacketRecord& packet : flow.packets) {
      if (!packet.received() && !packet.dropped) ++unresolved;
    }
  }
  std::uint64_t queued = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    queued += net.node(NodeId{static_cast<std::uint16_t>(i)})
                  .mac()
                  .app_queue_size();
  }
  EXPECT_LE(unresolved, queued) << golden_.name;
  if (!golden_.config.enable_tunnels) {
    EXPECT_EQ(unresolved, queued) << golden_.name;
  }
}

// Every meter covers at most the measurement span (reset at warmup end to
// the end of the run), and exactly the span for a node that was alive
// throughout: each slot is charged once, whether executed or settled.
TEST_P(GoldenLedger, EveryNodeMetersItsSpan) {
  Network& net = runner_->network();
  const SimDuration span = net.sim().now() - runner_->measure_start();
  std::vector<char> revived(net.size(), 0);
  for (const ReviveRecord& record : net.revivals()) {
    revived[record.node.value] = 1;
  }
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Node& node = net.node(NodeId{static_cast<std::uint16_t>(i)});
    const SimDuration metered = node.meter().total_time();
    EXPECT_LE(metered.us, span.us) << golden_.name << " node " << i;
    if (node.alive() && revived[i] == 0) {
      EXPECT_EQ(metered.us, span.us) << golden_.name << " node " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, GoldenDigest,
                         ::testing::Range(std::size_t{0},
                                          golden_cases().size()),
                         [](const auto& info) {
                           return golden_cases()[info.param].name;
                         });
INSTANTIATE_TEST_SUITE_P(Configs, GoldenLedger,
                         ::testing::Range(std::size_t{0},
                                          golden_cases().size()),
                         [](const auto& info) {
                           return golden_cases()[info.param].name;
                         });

}  // namespace
}  // namespace digs
