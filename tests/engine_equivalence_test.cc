// The schedule-driven slot engine must be BIT-IDENTICAL to the reference
// polled loop: same ASN sequence, same RNG draw order, same deliveries, same
// energy. Each scenario runs the same experiment under both drivers and
// compares every observable exactly (no tolerances — the engine skips slots,
// it must not change them).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "testbed/experiment.h"
#include "testbed/layouts.h"

namespace digs {
namespace {

struct RunSnapshot {
  ExperimentResult result;
  std::uint64_t final_asn{0};
  std::uint64_t events_executed{0};
  std::vector<std::uint64_t> data_tx_attempts;
  std::vector<std::uint64_t> eb_sent;
  std::vector<double> energy_mj;
  std::vector<double> join_times_s;
  std::uint64_t guard_misses{0};
  std::uint64_t desync_events{0};
  std::uint64_t clock_corrections{0};
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

RunSnapshot run_once(ExperimentConfig config, bool use_slot_engine) {
  config.use_slot_engine = use_slot_engine;
  ExperimentRunner runner(half_testbed_a(), config);
  RunSnapshot snap;
  snap.result = runner.run();
  Network& net = runner.network();
  snap.final_asn = net.current_asn();
  snap.events_executed = net.sim().events_executed();
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Node& node = net.node(NodeId{static_cast<std::uint16_t>(i)});
    snap.data_tx_attempts.push_back(node.mac().data_tx_attempts());
    snap.eb_sent.push_back(node.mac().eb_sent());
    snap.energy_mj.push_back(node.meter().energy_mj());
  }
  snap.join_times_s = snap.result.join_times_s;
  snap.guard_misses = snap.result.guard_misses;
  snap.desync_events = snap.result.desync_events;
  snap.clock_corrections = snap.result.clock_corrections;
  return snap;
}

void expect_identical(const RunSnapshot& engine, const RunSnapshot& polled) {
  EXPECT_EQ(engine.final_asn, polled.final_asn);
  EXPECT_EQ(engine.result.generated, polled.result.generated);
  EXPECT_EQ(engine.result.delivered, polled.result.delivered);
  EXPECT_EQ(engine.result.flow_pdrs, polled.result.flow_pdrs);
  EXPECT_EQ(engine.result.latencies_ms, polled.result.latencies_ms);
  EXPECT_EQ(engine.result.overall_pdr, polled.result.overall_pdr);
  EXPECT_EQ(engine.data_tx_attempts, polled.data_tx_attempts);
  EXPECT_EQ(engine.eb_sent, polled.eb_sent);
  EXPECT_EQ(engine.join_times_s, polled.join_times_s);
  // Bit-identical means exactly equal — EXPECT_DOUBLE_EQ's 4-ULP tolerance
  // would mask drift in the accumulation order.
  EXPECT_EQ(engine.energy_mj, polled.energy_mj);
  EXPECT_EQ(engine.result.duty_cycle, polled.result.duty_cycle);
  EXPECT_EQ(engine.guard_misses, polled.guard_misses);
  EXPECT_EQ(engine.desync_events, polled.desync_events);
  EXPECT_EQ(engine.clock_corrections, polled.clock_corrections);
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<ProtocolSuite, std::uint64_t>> {
};

TEST_P(EngineEquivalence, BitIdenticalToPolledLoop) {
  const auto [suite, seed] = GetParam();
  const ExperimentConfig config = small_config(suite, seed);
  const RunSnapshot engine = run_once(config, /*use_slot_engine=*/true);
  const RunSnapshot polled = run_once(config, /*use_slot_engine=*/false);
  expect_identical(engine, polled);
  // The whole point: the engine executes far fewer simulator events than
  // one-per-slot polling.
  EXPECT_LT(engine.events_executed, polled.events_executed);
}

INSTANTIATE_TEST_SUITE_P(
    SuitesAndSeeds, EngineEquivalence,
    ::testing::Combine(::testing::Values(ProtocolSuite::kDigs,
                                         ProtocolSuite::kOrchestra,
                                         ProtocolSuite::kWirelessHart),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Clock drift must not break the equivalence: offsets are a closed-form
// function of simulated time (never of how many slots the driver executed),
// drift deadlines ride the same wake heap as sync deadlines, and the guard
// check runs at the same sequence point in both reception paths. Walk
// amplitude is included so the epoch random walk is exercised too.
class EngineEquivalenceDrift : public ::testing::TestWithParam<ProtocolSuite> {
};

TEST_P(EngineEquivalenceDrift, BitIdenticalUnderDrift) {
  ExperimentConfig config = small_config(GetParam(), 7);
  config.clock_ppm = 40.0;
  config.clock_walk_ppm = 5.0;
  const RunSnapshot engine = run_once(config, /*use_slot_engine=*/true);
  const RunSnapshot polled = run_once(config, /*use_slot_engine=*/false);
  expect_identical(engine, polled);
  // The drift path actually engaged: corrections happened.
  EXPECT_GT(engine.clock_corrections, 0u);
}

INSTANTIATE_TEST_SUITE_P(Suites, EngineEquivalenceDrift,
                         ::testing::Values(ProtocolSuite::kDigs,
                                           ProtocolSuite::kOrchestra,
                                           ProtocolSuite::kWirelessHart),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// Failure injection exercises the engine's kill/revive accounting: a dying
// node must freeze mid-window with exactly the polled loop's energy, and a
// revived node must rejoin with identical scan timing.
TEST(EngineEquivalenceFailures, KillAndReviveBitIdentical) {
  ExperimentConfig config = small_config(ProtocolSuite::kDigs, 5);
  // Kill a relay mid-measurement, revive it 30 s later.
  config.faults.crash(seconds(std::int64_t{20}), NodeId{7});
  config.faults.recover(seconds(std::int64_t{50}), NodeId{7});
  const RunSnapshot engine = run_once(config, /*use_slot_engine=*/true);
  const RunSnapshot polled = run_once(config, /*use_slot_engine=*/false);
  expect_identical(engine, polled);
}

// A scanner that loses power and revives within one scan dwell restarts
// its scan on a freshly drawn channel. The engine caches each scanner's
// channel to decide which scanners a frame can reach, so a revival must
// drop that cache or the node is judged on its old channel. On a layout
// within one grid block every frame couples to every node and the channel
// alone decides, so short outages of scanning nodes there expose a stale
// channel at the first co-channel frame.
RunSnapshot run_scanner_outages(bool use_slot_engine) {
  const TestbedLayout layout = half_testbed_a();
  NetworkConfig config;
  config.suite = ProtocolSuite::kDigs;
  config.num_access_points = layout.num_access_points;
  config.seed = 9;
  config.node = ExperimentRunner::default_node_config();
  config.node.mac.tx_power_dbm = layout.tx_power_dbm;
  config.medium.propagation.path_loss_exponent = layout.path_loss_exponent;
  config.use_slot_engine = use_slot_engine;
  Network net(config, layout.positions);
  net.start();
  // Every 250 ms a quarter of the scanning field devices go down for 20 ms
  // (2 slots). Instants sit mid-slot, so no slot tick shares them.
  std::vector<NodeId> down;
  for (int step = 0; step < 160; ++step) {
    const SimTime at = SimTime{0} + milliseconds(250 * step + 5);
    net.run_until(at);
    for (std::size_t i = layout.num_access_points; i < net.size(); ++i) {
      const NodeId id{static_cast<std::uint16_t>(i)};
      if (static_cast<int>(i % 4) != step % 4) continue;
      if (!net.node(id).alive() || net.node(id).mac().synced()) continue;
      net.set_node_alive(id, false);
      down.push_back(id);
    }
    net.run_until(at + milliseconds(20));
    for (const NodeId id : down) net.set_node_alive(id, true);
    down.clear();
  }
  net.run_until(SimTime{0} + seconds(std::int64_t{45}));
  RunSnapshot snap;
  snap.final_asn = net.current_asn();
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Node& node = net.node(NodeId{static_cast<std::uint16_t>(i)});
    snap.data_tx_attempts.push_back(node.mac().data_tx_attempts());
    snap.eb_sent.push_back(node.mac().eb_sent());
    snap.energy_mj.push_back(node.meter().energy_mj());
  }
  for (const SimTime t : net.join_times()) {
    snap.join_times_s.push_back(t.seconds());
  }
  snap.result.revivals = net.revivals().size();
  return snap;
}

TEST(EngineEquivalenceFailures, ScannerOutagesWithinOneDwellBitIdentical) {
  const RunSnapshot engine = run_scanner_outages(true);
  const RunSnapshot polled = run_scanner_outages(false);
  EXPECT_EQ(engine.final_asn, polled.final_asn);
  EXPECT_EQ(engine.eb_sent, polled.eb_sent);
  EXPECT_EQ(engine.join_times_s, polled.join_times_s);
  EXPECT_EQ(engine.energy_mj, polled.energy_mj);
  EXPECT_EQ(engine.result.revivals, polled.result.revivals);
  EXPECT_GT(engine.result.revivals, 100u);  // the outages actually happened
}

// Downlink traffic exercises the gateway's cross-node injection: a packet
// queued into a sleeping access point (from another node's slot or a flow
// event) must wake it for its dedicated downlink TX cells.
struct DownlinkSnapshot {
  double pdr{0};
  std::uint64_t final_asn{0};
  std::vector<std::uint64_t> data_tx_attempts;
  std::vector<double> energy_mj;
};

DownlinkSnapshot run_downlink(bool use_slot_engine) {
  NetworkConfig config;
  config.suite = ProtocolSuite::kDigs;
  config.seed = 21;
  config.node = ExperimentRunner::default_node_config();
  config.node.enable_downlink = true;
  config.medium.propagation.path_loss_exponent = 3.8;
  config.use_slot_engine = use_slot_engine;

  TestbedLayout layout;
  layout.num_access_points = 2;
  layout.positions = {
      {12.0, 10.0, 0.0}, {24.0, 10.0, 0.0},  // APs
      {10.0, 5.0, 0.0},  {10.0, 15.0, 0.0}, {17.0, 8.0, 0.0},
      {17.0, 14.0, 0.0}, {24.0, 6.0, 0.0},  {30.0, 10.0, 0.0},
      {14.0, 11.0, 0.0}, {27.0, 12.0, 0.0},
  };
  Network net(config, layout.positions);

  FlowSpec flow;
  flow.id = FlowId{0};
  flow.source = NodeId{0};  // gateway-originated command
  flow.downlink_dest = NodeId{7};
  flow.period = seconds(std::int64_t{2});
  flow.start_offset = seconds(std::int64_t{180});
  net.add_flow(flow);
  net.start();
  net.run_until(SimTime{0} + seconds(std::int64_t{300}));

  DownlinkSnapshot snap;
  snap.pdr = net.stats().pdr(FlowId{0},
                             SimTime{0} + seconds(std::int64_t{185}));
  snap.final_asn = net.current_asn();
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Node& node = net.node(NodeId{static_cast<std::uint16_t>(i)});
    snap.data_tx_attempts.push_back(node.mac().data_tx_attempts());
    snap.energy_mj.push_back(node.meter().energy_mj());
  }
  return snap;
}

TEST(EngineEquivalenceDownlink, GatewayInjectionBitIdentical) {
  const DownlinkSnapshot engine = run_downlink(true);
  const DownlinkSnapshot polled = run_downlink(false);
  EXPECT_EQ(engine.final_asn, polled.final_asn);
  EXPECT_EQ(engine.pdr, polled.pdr);
  EXPECT_EQ(engine.data_tx_attempts, polled.data_tx_attempts);
  EXPECT_EQ(engine.energy_mj, polled.energy_mj);
  EXPECT_GT(engine.pdr, 0.5);  // the scenario actually delivers traffic
}

}  // namespace
}  // namespace digs
