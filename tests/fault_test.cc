// Fault-injection and robustness tests: the FaultScript engine (crash /
// recover cycles, link blackouts, burst interference), cold-restart
// semantics of revived nodes, AP failover, child/descendant-table pruning
// after a parent dies, and the runtime NetworkInvariantMonitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/fault_script.h"
#include "core/invariant_monitor.h"
#include "core/network.h"
#include "routing/centralized_routing.h"
#include "routing/digs_routing.h"
#include "testbed/experiment.h"

namespace digs {
namespace {

[[nodiscard]] SimTime at_s(std::int64_t s) {
  return SimTime{0} + seconds(s);
}

std::vector<Position> line_positions(int devices, double spacing,
                                     double ap_gap = 8.0) {
  // Two APs at the head, then a ladder of devices: two per tier so every
  // hop has the redundancy the protocols are designed around (same layout
  // as network_test.cc).
  std::vector<Position> positions;
  positions.push_back({0.0, 0.0, 0.0});
  positions.push_back({ap_gap, 0.0, 0.0});
  for (int i = 0; i < devices; ++i) {
    const double x = ap_gap + spacing * (i / 2 + 1);
    const double y = (i % 2 == 0) ? -3.0 : 3.0;
    positions.push_back({x, y, 0.0});
  }
  return positions;
}

NetworkConfig base_config(ProtocolSuite suite = ProtocolSuite::kDigs,
                          std::uint64_t seed = 5) {
  NetworkConfig config;
  config.suite = suite;
  config.seed = seed;
  config.node = ExperimentRunner::default_node_config();
  config.node.mac.tx_power_dbm = 0.0;
  config.medium.propagation.path_loss_exponent = 3.8;
  return config;
}

TestbedLayout ladder_layout(int devices, double spacing) {
  TestbedLayout layout;
  layout.name = "fault-ladder";
  layout.num_access_points = 2;
  layout.positions = line_positions(devices, spacing);
  return layout;
}

// --- cold restart (regression for Network::set_node_alive(id, true)) ---

TEST(ColdRestartTest, RevivedNodeRestartsWithColdState) {
  // Three tiers so tier-2 nodes have both parents and children.
  Network net(base_config(), line_positions(6, 14.0));
  net.start();
  net.run_until(at_s(150));

  // Pick a mid-ladder victim that accumulated real state: parents, rank,
  // neighbors, and at least one child.
  NodeId victim = kNoNode;
  for (const std::uint16_t id : {4, 5}) {
    if (!net.node(NodeId{id}).routing().children().empty()) {
      victim = NodeId{id};
      break;
    }
  }
  ASSERT_TRUE(victim.valid()) << "no tier-2 node has children";
  ASSERT_TRUE(net.node(victim).routing().joined());
  ASSERT_LT(net.node(victim).routing().rank(), kInfiniteRank);
  ASSERT_GT(net.node(victim).neighbors().size(), 0u);

  net.set_node_alive(victim, false);
  Node& node = net.node(victim);  // neighbors() has no const overload
  EXPECT_FALSE(node.alive());
  EXPECT_EQ(node.routing().rank(), kInfiniteRank);
  EXPECT_EQ(node.routing().best_parent(), kNoNode);
  EXPECT_EQ(node.routing().second_best_parent(), kNoNode);
  EXPECT_TRUE(node.routing().children().empty());
  EXPECT_EQ(node.neighbors().size(), 0u);
  EXPECT_FALSE(node.mac().synced());

  net.run_until(at_s(180));
  net.set_node_alive(victim, true);
  // Immediately after power-up the node is cold: unsynchronized, infinite
  // rank, no parents, no children — nothing survived the crash.
  EXPECT_TRUE(node.alive());
  EXPECT_FALSE(node.mac().synced());
  EXPECT_EQ(node.routing().rank(), kInfiniteRank);
  EXPECT_EQ(node.routing().best_parent(), kNoNode);
  EXPECT_TRUE(node.routing().children().empty());

  net.run_until(at_s(330));
  EXPECT_TRUE(node.mac().synced());
  EXPECT_TRUE(node.routing().joined());

  // The revival was recorded and the rejoin instant filled in.
  ASSERT_EQ(net.revivals().size(), 1u);
  const ReviveRecord& record = net.revivals()[0];
  EXPECT_EQ(record.node, victim);
  EXPECT_EQ(record.revived_at, at_s(180));
  ASSERT_GE(record.rejoined_at.us, 0);
  EXPECT_GT(record.rejoined_at, record.revived_at);
}

// --- AP failover ---

TEST(ApFailoverTest, TrafficRehomesToSurvivingAp) {
  // One tier of two devices in range of both APs.
  Network net(base_config(ProtocolSuite::kDigs, 9), line_positions(2, 8.0));
  FlowSpec flow;
  flow.id = FlowId{0};
  flow.source = NodeId{2};
  flow.period = seconds(static_cast<std::int64_t>(1));
  flow.start_offset = seconds(static_cast<std::int64_t>(60));
  net.add_flow(flow);
  net.start();
  net.run_until(at_s(120));

  const NodeId bp = net.node(NodeId{2}).routing().best_parent();
  ASSERT_TRUE(bp.valid());
  ASSERT_TRUE(net.node(bp).is_access_point());
  const NodeId survivor = bp == NodeId{0} ? NodeId{1} : NodeId{0};

  net.set_node_alive(bp, false);
  net.run_until(at_s(240));

  // The source re-homed to the surviving AP and kept delivering.
  EXPECT_EQ(net.node(NodeId{2}).routing().best_parent(), survivor);
  EXPECT_GT(net.stats().pdr(FlowId{0}, at_s(125), at_s(240)), 0.6);

  // A revived AP is born joined (rank 1), so its rejoin is instantaneous.
  net.set_node_alive(bp, true);
  EXPECT_EQ(net.node(bp).routing().rank(), kAccessPointRank);
  ASSERT_EQ(net.revivals().size(), 1u);
  EXPECT_EQ(net.revivals()[0].node, bp);
  EXPECT_EQ(net.revivals()[0].rejoined_at, net.revivals()[0].revived_at);
}

// --- link blackouts ---

TEST(BlackoutTest, BlackoutSuppressesDecodeSymmetrically) {
  Network net(base_config(), line_positions(2, 8.0));
  Medium& medium = net.medium();

  TransmissionAttempt tx;
  tx.sender = NodeId{0};
  tx.tx_power_dbm = 0.0;
  const auto probability = [&] {
    return medium
        .check_reception(tx, NodeId{1}, 7, at_s(1),
                         std::span<const TransmissionAttempt>{})
        .probability;
  };
  const double before = probability();
  ASSERT_GT(before, 0.0) << "APs 8 m apart must decode each other";

  medium.set_link_blackout(NodeId{0}, NodeId{1}, true);
  EXPECT_TRUE(medium.link_blacked_out(NodeId{0}, NodeId{1}));
  EXPECT_TRUE(medium.link_blacked_out(NodeId{1}, NodeId{0}));
  EXPECT_FALSE(medium.link_blacked_out(NodeId{0}, NodeId{2}));
  EXPECT_EQ(probability(), 0.0);
  // The blacked-out frame still radiates: the signal RSS is reported so it
  // keeps contributing interference at other listeners.
  EXPECT_GT(medium
                .check_reception(tx, NodeId{1}, 7, at_s(1),
                                 std::span<const TransmissionAttempt>{})
                .rss_dbm,
            medium.config().sensitivity_dbm);

  // Clearing restores the exact pre-blackout probability (the blackout
  // consumes no draws and shifts no fading state).
  medium.set_link_blackout(NodeId{0}, NodeId{1}, false);
  EXPECT_FALSE(medium.link_blacked_out(NodeId{0}, NodeId{1}));
  EXPECT_EQ(probability(), before);
}

TEST(BlackoutTest, BestParentBlackoutFailsOverSeamlessly) {
  Network net(base_config(ProtocolSuite::kDigs, 11), line_positions(2, 8.0));
  FlowSpec flow;
  flow.id = FlowId{0};
  flow.source = NodeId{2};
  flow.period = seconds(static_cast<std::int64_t>(1));
  flow.start_offset = seconds(static_cast<std::int64_t>(60));
  net.add_flow(flow);
  net.start();
  net.run_until(at_s(120));

  const NodeId bp = net.node(NodeId{2}).routing().best_parent();
  ASSERT_TRUE(bp.valid());
  ASSERT_TRUE(net.node(NodeId{2}).routing().second_best_parent().valid());

  // Black out the best-parent link for 60 s: the backup parent's attempt
  // slots keep the flow alive (the paper's seamless failover).
  FaultScript script;
  script.blackout(seconds(static_cast<std::int64_t>(0)), NodeId{2}, bp,
                  seconds(static_cast<std::int64_t>(60)));
  script.install(net);
  net.run_until(at_s(122));
  EXPECT_TRUE(net.medium().link_blacked_out(NodeId{2}, bp));

  net.run_until(at_s(240));
  EXPECT_FALSE(net.medium().link_blacked_out(NodeId{2}, bp));
  EXPECT_GT(net.stats().pdr(FlowId{0}, at_s(120), at_s(180)), 0.5);
  EXPECT_GT(net.stats().pdr(FlowId{0}, at_s(180), at_s(240)), 0.8);
}

// --- child/descendant pruning after a parent dies ---

TEST(StalePruningTest, DeadParentIsEvictedAndDownlinkRecovers) {
  NetworkConfig config = base_config(ProtocolSuite::kDigs, 13);
  config.node.enable_downlink = true;
  // Short timeouts so eviction happens within the test window (prune timer
  // fires every 30 s); adverts must outpace the shortened timeouts or live
  // entries would be pruned between refreshes.
  config.node.routing.child_timeout =
      seconds(static_cast<std::int64_t>(40));
  config.node.routing.descendant_timeout =
      seconds(static_cast<std::int64_t>(35));
  config.node.routing.dest_advert_period =
      seconds(static_cast<std::int64_t>(10));
  Network net(config, line_positions(6, 14.0));

  // Downlink command flow: AP 0 -> far-tier device 7, multi-hop.
  FlowSpec flow;
  flow.id = FlowId{0};
  flow.source = NodeId{0};
  flow.downlink_dest = NodeId{7};
  flow.period = seconds(static_cast<std::int64_t>(2));
  flow.start_offset = seconds(static_cast<std::int64_t>(180));
  net.add_flow(flow);
  net.start();
  net.run_until(at_s(200));
  ASSERT_GT(net.stats().pdr(FlowId{0}, at_s(185), at_s(200)), 0.5)
      << "downlink must work before the fault";

  // Kill the destination's current best parent (a mid-ladder relay).
  const NodeId victim = net.node(NodeId{7}).routing().best_parent();
  ASSERT_TRUE(victim.valid());
  ASSERT_FALSE(net.node(victim).is_access_point());
  net.set_node_alive(victim, false);

  // child_timeout + one prune period bound the eviction; run past it.
  net.run_until(at_s(330));
  for (std::uint16_t i = 0; i < net.size(); ++i) {
    const Node& node = net.node(NodeId{i});
    if (!node.alive()) continue;
    const auto children = node.routing().children();
    EXPECT_TRUE(std::none_of(
        children.begin(), children.end(),
        [&](const ChildEntry& c) { return c.id == victim; }))
        << "node " << i << " still lists the dead node as a child";
    const auto* routing = dynamic_cast<const DigsRouting*>(&node.routing());
    ASSERT_NE(routing, nullptr);
    for (const DigsRouting::DescendantView& entry :
         routing->descendant_entries()) {
      EXPECT_NE(entry.via, victim)
          << "node " << i << " still routes " << entry.dest.value
          << " through the dead node";
    }
  }

  // The stale branch no longer blackholes: the destination re-homed, fresh
  // adverts replaced the dead via, and downlink delivery recovered. The
  // window is generous — losing the relay can also cost the destination its
  // time source (rescan + resync before it can re-home).
  net.run_until(at_s(450));
  EXPECT_GT(net.stats().pdr(FlowId{0}, at_s(390), at_s(450)), 0.5);
}

// --- fault-script end-to-end through the experiment harness ---

TEST(FaultScriptTest, ChurnCycleYieldsRecoveryMetrics) {
  ExperimentConfig config;
  config.suite = ProtocolSuite::kDigs;
  config.seed = 17;
  config.num_flows = 3;
  config.flow_period = seconds(static_cast<std::int64_t>(2));
  config.warmup = seconds(static_cast<std::int64_t>(150));
  config.duration = seconds(static_cast<std::int64_t>(420));
  config.monitor_invariants = true;
  // Two crash/recover cycles on a mid-ladder relay: crash at +30 and +210,
  // 60 s downtime, 120 s uptime to rejoin before the next crash.
  config.faults.crash_cycle(seconds(static_cast<std::int64_t>(30)), NodeId{4},
                            seconds(static_cast<std::int64_t>(60)),
                            seconds(static_cast<std::int64_t>(120)), 2);

  ExperimentRunner runner(ladder_layout(6, 12.0), config);
  const ExperimentResult result = runner.run();

  EXPECT_EQ(result.revivals, 2u);
  // Finite recovery: every revival rejoined within its up-window.
  ASSERT_EQ(result.rejoin_times_s.size(), result.revivals);
  for (const double t : result.rejoin_times_s) {
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 120.0);
  }
  // One dip record per disturbance (the two crashes).
  ASSERT_EQ(result.fault_dips.size(), 2u);
  EXPECT_DOUBLE_EQ(result.fault_dips[0].at_s, 30.0);
  EXPECT_DOUBLE_EQ(result.fault_dips[1].at_s, 210.0);
  for (const auto& dip : result.fault_dips) {
    EXPECT_GE(dip.depth, 0.0);
    EXPECT_GE(dip.duration_s, 0.0);
  }
  // DiGS converges back to a consistent state after every cycle.
  EXPECT_EQ(result.invariant_violations, 0u);
}

// --- invariant monitor ---

TEST(InvariantMonitorTest, HealthyRunRecordsNothing) {
  NetworkConfig config = base_config(ProtocolSuite::kDigs, 19);
  config.monitor_invariants = true;
  config.node.enable_downlink = true;
  Network net(config, line_positions(6, 12.0));
  net.start();
  net.run_until(at_s(300));
  ASSERT_NE(net.invariant_monitor(), nullptr);
  EXPECT_TRUE(net.invariant_monitor()->violations().empty());
}

TEST(InvariantMonitorTest, NotConstructedWhenDisabled) {
  Network net(base_config(), line_positions(2, 10.0));
  EXPECT_EQ(net.invariant_monitor(), nullptr);
}

TEST(InvariantMonitorTest, DetectsPersistentRankInversionAndCycle) {
  // The WirelessHART baseline holds whatever the manager installed, so a
  // corrupt installation persists — plant a mutual-parent pair and let the
  // transient grace expire.
  NetworkConfig config = base_config(ProtocolSuite::kWirelessHart, 23);
  config.monitor_invariants = true;
  Network net(config, line_positions(4, 10.0));
  net.start();
  net.run_until(at_s(90));  // past the manager's initial install

  const SimTime now = net.sim().now();
  auto& a = dynamic_cast<CentralizedRouting&>(net.node(NodeId{4}).routing());
  auto& b = dynamic_cast<CentralizedRouting&>(net.node(NodeId{5}).routing());
  a.set_assignment(NodeId{5}, kNoNode, 3, {}, now);
  b.set_assignment(NodeId{4}, kNoNode, 3, {}, now);

  // Under the 60 s grace both are mere suspects.
  net.run_until(at_s(120));
  const NetworkInvariantMonitor& monitor = *net.invariant_monitor();
  EXPECT_EQ(monitor.count(InvariantKind::kRankRule), 0u);

  // Past the grace the periodic sweep matures them into violations.
  net.run_until(at_s(180));
  EXPECT_GE(monitor.count(InvariantKind::kRankRule), 1u);
  EXPECT_GE(monitor.count(InvariantKind::kParentCycle), 1u);
  // Each (kind, node, other) triple is recorded at most once.
  net.run_until(at_s(240));
  EXPECT_LE(monitor.count(InvariantKind::kRankRule), 2u);
  EXPECT_LE(monitor.count(InvariantKind::kParentCycle), 2u);
}

TEST(InvariantMonitorTest, TransientInversionIsForgiven) {
  // Same planting, but healed before the grace expires: no violation.
  NetworkConfig config = base_config(ProtocolSuite::kWirelessHart, 29);
  config.monitor_invariants = true;
  Network net(config, line_positions(4, 10.0));
  net.start();
  net.run_until(at_s(90));

  auto& a = dynamic_cast<CentralizedRouting&>(net.node(NodeId{4}).routing());
  const NodeId old_bp = a.best_parent();
  const std::uint16_t old_rank = a.rank();
  a.set_assignment(NodeId{5}, kNoNode, net.node(NodeId{5}).routing().rank(),
                   {}, net.sim().now());
  net.run_until(at_s(120));  // observed, but within grace
  a.set_assignment(old_bp, kNoNode, old_rank, {}, net.sim().now());
  net.run_until(at_s(240));
  EXPECT_EQ(net.invariant_monitor()->count(InvariantKind::kRankRule), 0u);
  EXPECT_EQ(net.invariant_monitor()->count(InvariantKind::kParentCycle), 0u);
}

// --- fault-script bookkeeping ---

TEST(FaultScriptTest, DisturbanceOffsetsSkipRecoveries) {
  FaultScript script;
  script.crash_cycle(seconds(static_cast<std::int64_t>(10)), NodeId{4},
                     seconds(static_cast<std::int64_t>(20)),
                     seconds(static_cast<std::int64_t>(30)), 2);
  script.blackout(seconds(static_cast<std::int64_t>(5)), NodeId{2}, NodeId{3},
                  seconds(static_cast<std::int64_t>(15)));
  // crash at 10 and 60, blackout at 5 — recoveries at 30 and 80 excluded.
  const auto offsets = script.disturbance_offsets();
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets[0].us, seconds(static_cast<std::int64_t>(10)).us);
  EXPECT_EQ(offsets[1].us, seconds(static_cast<std::int64_t>(60)).us);
  EXPECT_EQ(offsets[2].us, seconds(static_cast<std::int64_t>(5)).us);
  EXPECT_EQ(script.events().size(), 5u);
}

TEST(FaultScriptTest, BurstRegistersJammer) {
  Network net(base_config(), line_positions(2, 10.0));
  net.start();
  net.run_until(at_s(10));
  FaultScript script;
  script.burst(seconds(static_cast<std::int64_t>(5)), Position{12.0, 0.0, 0.0},
               -4.0, seconds(static_cast<std::int64_t>(30)));
  script.install(net);
  EXPECT_EQ(net.medium().num_jammers(), 1u);
}

// --- malformed fault events are rejected ---

// install() must reject the whole script before scheduling any of it (the
// valid crash listed first included), and the message must name the event.
void expect_rejected(const FaultScript& script, const std::string& expected) {
  Network net(base_config(), line_positions(6, 14.0));  // 8 nodes
  net.start();
  const std::size_t pending = net.sim().pending_events();
  try {
    script.install(net);
    ADD_FAILURE() << expected << ": install() accepted the script";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(expected), std::string::npos) << msg;
  }
  EXPECT_EQ(net.sim().pending_events(), pending);
  EXPECT_EQ(net.medium().num_jammers(), 0u);
}

FaultScript valid_prefix() {
  FaultScript script;
  script.crash(seconds(std::int64_t{1}), NodeId{3});
  return script;
}

TEST(FaultValidationTest, CrashOutsideLayoutIsRejected) {
  FaultScript script = valid_prefix();
  script.crash(seconds(std::int64_t{2}), NodeId{200});
  expect_rejected(script, "crash event at +2 s names node 200, "
                  "outside the 8-node layout");
}

TEST(FaultValidationTest, RecoverOutsideLayoutIsRejected) {
  FaultScript script = valid_prefix();
  script.recover(seconds(std::int64_t{2}), NodeId{8});
  expect_rejected(script, "recover event at +2 s names node 8, "
                  "outside the 8-node layout");
}

TEST(FaultValidationTest, BlackoutEndpointOutsideLayoutIsRejected) {
  FaultScript script = valid_prefix();
  script.blackout(seconds(std::int64_t{2}), NodeId{2}, NodeId{50},
                  seconds(std::int64_t{5}));
  expect_rejected(script, "blackout event at +2 s names node 50, "
                  "outside the 8-node layout");
}

TEST(FaultValidationTest, ClockJumpOutsideLayoutIsRejected) {
  FaultScript script = valid_prefix();
  script.clock_jump(seconds(std::int64_t{2}), NodeId{200}, 500.0);
  expect_rejected(script, "clock_jump event at +2 s names node 200, "
                  "outside the 8-node layout");
}

// schedule_at clamps a past instant to now: a negative offset would fire
// out of order, and a window with a negative duration would end before it
// starts (a blackout would then stay on for the rest of the run).
TEST(FaultValidationTest, NegativeOffsetIsRejected) {
  FaultScript script = valid_prefix();
  script.crash(seconds(std::int64_t{-5}), NodeId{4});
  expect_rejected(script, "crash event at -5 s has a negative offset");
}

TEST(FaultValidationTest, NegativeBlackoutDurationIsRejected) {
  FaultScript script = valid_prefix();
  script.blackout(seconds(std::int64_t{10}), NodeId{2}, NodeId{7},
                  seconds(std::int64_t{-20}));
  expect_rejected(script, "blackout event at +10 s has a negative duration");
}

TEST(FaultValidationTest, NegativeBurstDurationIsRejected) {
  FaultScript script = valid_prefix();
  script.burst(seconds(std::int64_t{5}), Position{12.0, 0.0, 0.0}, -4.0,
               seconds(std::int64_t{-1}));
  expect_rejected(script, "burst event at +5 s has a negative duration");
}

// The relay-strike knobs: a negative offset, a downtime <= 0 and fewer than
// one strike are rejected at construction, with exactly `expected` as the
// message.
void expect_runner_rejects(const ExperimentConfig& config,
                           const std::string& expected) {
  try {
    ExperimentRunner runner(half_testbed_a(), config);
    ADD_FAILURE() << expected << ": the runner accepted the config";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(FaultValidationTest, NegativeRelayStrikeOffsetIsRejected) {
  ExperimentConfig config;
  config.crash_tunnel_relay_after = seconds(std::int64_t{-5});
  expect_runner_rejects(
      config, "ExperimentConfig::crash_tunnel_relay_after = -5 s is negative");
  config.crash_tunnel_relay_after = seconds(std::int64_t{0});
  EXPECT_NO_THROW({ ExperimentRunner runner(half_testbed_a(), config); });
}

TEST(FaultValidationTest, NonPositiveRelayStrikeDowntimeIsRejected) {
  ExperimentConfig config;
  config.crash_tunnel_relay_after = seconds(std::int64_t{60});
  config.crash_tunnel_relay_downtime = SimDuration{0};
  expect_runner_rejects(
      config,
      "ExperimentConfig::crash_tunnel_relay_downtime = 0 s is not positive");
  config.crash_tunnel_relay_downtime = seconds(std::int64_t{-30});
  expect_runner_rejects(
      config,
      "ExperimentConfig::crash_tunnel_relay_downtime = -30 s is not positive");
}

TEST(FaultValidationTest, RelayStrikeCyclesBelowOneAreRejected) {
  ExperimentConfig config;
  config.crash_tunnel_relay_after = seconds(std::int64_t{60});
  for (const int cycles : {0, -2}) {
    config.crash_tunnel_relay_cycles = cycles;
    expect_runner_rejects(config,
                          "ExperimentConfig::crash_tunnel_relay_cycles = " +
                              std::to_string(cycles) + " is below 1");
  }
  config.crash_tunnel_relay_cycles = 1;
  EXPECT_NO_THROW({ ExperimentRunner runner(half_testbed_a(), config); });
}

// Each period drives a timer that reschedules itself one period later; a
// period <= 0 would fire at the same instant forever. A zero period is
// rejected only while its feature is on.
TEST(FaultValidationTest, NonPositiveFlowPeriodIsRejected) {
  ExperimentConfig config;
  config.flow_period = SimDuration{0};
  expect_runner_rejects(config,
                        "ExperimentConfig::flow_period = 0 s is not positive");
  config.flow_period = seconds(std::int64_t{-1});
  expect_runner_rejects(
      config, "ExperimentConfig::flow_period = -1 s is not positive");
  config.num_flows = 0;
  EXPECT_NO_THROW({ ExperimentRunner runner(half_testbed_a(), config); });
}

TEST(FaultValidationTest, NonPositiveRandomizeEpochIsRejected) {
  ExperimentConfig config;
  config.randomize_epoch = SimDuration{0};
  EXPECT_NO_THROW({ ExperimentRunner runner(half_testbed_a(), config); });
  config.randomize_schedule = true;
  expect_runner_rejects(
      config, "ExperimentConfig::randomize_epoch = 0 s is not positive");
}

TEST(FaultValidationTest, NonPositiveControlPeriodIsRejected) {
  ExperimentConfig config;
  config.control_period = SimDuration{0};
  EXPECT_NO_THROW({ ExperimentRunner runner(half_testbed_a(), config); });
  config.control_loops = 1;
  expect_runner_rejects(
      config, "ExperimentConfig::control_period = 0 s is not positive");
}

// The experiment runner rejects a fault script naming a node outside the
// layout at construction, before the network is built or anything is
// scheduled.
TEST(FaultValidationTest, ExperimentRunnerRejectsOutOfLayoutNodes) {
  const TestbedLayout layout = half_testbed_a();  // 20 nodes
  ExperimentConfig faults;
  faults.faults.crash(seconds(std::int64_t{10}), NodeId{20});
  EXPECT_THROW({ ExperimentRunner runner(layout, faults); },
               std::invalid_argument);
  // The last valid id is accepted.
  faults.faults = FaultScript{};
  faults.faults.crash(seconds(std::int64_t{10}), NodeId{19});
  EXPECT_NO_THROW({ ExperimentRunner runner(layout, faults); });
}

}  // namespace
}  // namespace digs
