// End-to-end integration tests: the full stack (PHY -> TSCH MAC -> routing
// -> autonomous scheduling) on multi-node networks, for both protocol
// suites. These are the behaviours the paper's evaluation rests on:
// formation, delivery, graph redundancy, failure response, determinism.
#include <gtest/gtest.h>

#include <set>

#include "core/network.h"
#include "manager/graph_router.h"
#include "testbed/experiment.h"
#include "testbed/layouts.h"

namespace digs {
namespace {

/// A compact 12-node single-floor layout for fast tests.
TestbedLayout small_layout() {
  TestbedLayout layout;
  layout.name = "Small-12";
  layout.num_access_points = 2;
  layout.positions = {
      {12.0, 10.0, 0.0}, {24.0, 10.0, 0.0},  // APs near the gateway
      {10.0, 5.0, 0.0},  {10.0, 15.0, 0.0}, {17.0, 8.0, 0.0},
      {17.0, 14.0, 0.0}, {24.0, 6.0, 0.0},  {24.0, 16.0, 0.0},
      {30.0, 10.0, 0.0}, {14.0, 11.0, 0.0}, {27.0, 12.0, 0.0},
      {20.0, 11.0, 0.0},
  };
  layout.jammer_positions = {{17.0, 11.0, 0.0}, {26.0, 9.0, 0.0}};
  return layout;
}

ExperimentConfig quick_config(ProtocolSuite suite, std::uint64_t seed = 3) {
  ExperimentConfig config;
  config.suite = suite;
  config.seed = seed;
  config.num_flows = 4;
  config.flow_period = seconds(static_cast<std::int64_t>(2));
  config.warmup = seconds(static_cast<std::int64_t>(150));
  config.duration = seconds(static_cast<std::int64_t>(120));
  config.num_jammers = 0;
  return config;
}

TEST(IntegrationTest, DigsNetworkFormsAndJoins) {
  ExperimentRunner runner(small_layout(), quick_config(ProtocolSuite::kDigs));
  const ExperimentResult result = runner.run();
  // All 10 field devices eventually joined with both parents; the bulk
  // joins well within the warmup (stragglers acquire the second parent as
  // the mesh settles).
  ASSERT_EQ(result.join_times_s.size(), 10u);
  Cdf join;
  for (const double t : result.join_times_s) join.add(t);
  EXPECT_LT(join.median(), 90.0);
  EXPECT_LT(join.max(), 270.0);
}

TEST(IntegrationTest, OrchestraNetworkForms) {
  ExperimentRunner runner(small_layout(),
                          quick_config(ProtocolSuite::kOrchestra));
  const ExperimentResult result = runner.run();
  EXPECT_EQ(result.join_times_s.size(), 10u);
}

TEST(IntegrationTest, DigsDeliversInCleanEnvironment) {
  ExperimentRunner runner(small_layout(), quick_config(ProtocolSuite::kDigs));
  const ExperimentResult result = runner.run();
  EXPECT_GT(result.generated, 100u);
  EXPECT_GT(result.overall_pdr, 0.95);
  EXPECT_FALSE(result.latencies_ms.empty());
}

TEST(IntegrationTest, OrchestraDeliversInCleanEnvironment) {
  ExperimentRunner runner(small_layout(),
                          quick_config(ProtocolSuite::kOrchestra));
  const ExperimentResult result = runner.run();
  EXPECT_GT(result.overall_pdr, 0.95);
}

TEST(IntegrationTest, DigsNodesHoldTwoParents) {
  ExperimentRunner runner(small_layout(), quick_config(ProtocolSuite::kDigs));
  runner.run();
  Network& net = runner.network();
  int with_backup = 0;
  for (std::uint16_t i = 2; i < net.size(); ++i) {
    const RoutingProtocol& routing = net.node(NodeId{i}).routing();
    EXPECT_TRUE(routing.joined()) << "node " << i;
    if (routing.second_best_parent().valid()) ++with_backup;
  }
  // Dense 12-node network: most nodes hold a backup at any instant (nodes
  // whose rank dropped to 2 in a corner may only reach one AP).
  EXPECT_GE(with_backup, 7);
}

TEST(IntegrationTest, SteadyStateRoutesFormDag) {
  ExperimentRunner runner(small_layout(), quick_config(ProtocolSuite::kDigs));
  runner.run();
  Network& net = runner.network();
  // Follow best-parent pointers from every node: must reach an AP without
  // revisiting (DAG / no routing loops).
  for (std::uint16_t start = 2; start < net.size(); ++start) {
    std::set<std::uint16_t> visited;
    NodeId cursor{start};
    while (cursor.valid() && cursor.value >= 2) {
      EXPECT_TRUE(visited.insert(cursor.value).second)
          << "best-parent loop through node " << cursor.value;
      cursor = net.node(cursor).routing().best_parent();
    }
    EXPECT_TRUE(cursor.valid()) << "node " << start << " detached";
  }
}

TEST(IntegrationTest, RanksDecreaseTowardsAps) {
  ExperimentRunner runner(small_layout(), quick_config(ProtocolSuite::kDigs));
  runner.run();
  Network& net = runner.network();
  for (std::uint16_t i = 2; i < net.size(); ++i) {
    const RoutingProtocol& routing = net.node(NodeId{i}).routing();
    const NodeId bp = routing.best_parent();
    ASSERT_TRUE(bp.valid());
    EXPECT_LT(net.node(bp).routing().rank(), routing.rank());
    const NodeId sbp = routing.second_best_parent();
    if (sbp.valid()) {
      // Paper's rule: second-best parent rank strictly below ours.
      EXPECT_LT(net.node(sbp).routing().rank(), routing.rank());
    }
  }
}

TEST(IntegrationTest, DeterministicGivenSeed) {
  ExperimentRunner a(small_layout(), quick_config(ProtocolSuite::kDigs, 42));
  ExperimentRunner b(small_layout(), quick_config(ProtocolSuite::kDigs, 42));
  const ExperimentResult ra = a.run();
  const ExperimentResult rb = b.run();
  EXPECT_EQ(ra.generated, rb.generated);
  EXPECT_EQ(ra.delivered, rb.delivered);
  EXPECT_DOUBLE_EQ(ra.overall_pdr, rb.overall_pdr);
  ASSERT_EQ(ra.latencies_ms.size(), rb.latencies_ms.size());
  for (std::size_t i = 0; i < ra.latencies_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.latencies_ms[i], rb.latencies_ms[i]);
  }
}

TEST(IntegrationTest, DifferentSeedsDiffer) {
  ExperimentRunner a(small_layout(), quick_config(ProtocolSuite::kDigs, 1));
  ExperimentRunner b(small_layout(), quick_config(ProtocolSuite::kDigs, 2));
  const ExperimentResult ra = a.run();
  const ExperimentResult rb = b.run();
  // Different sources / fading: latency traces differ.
  EXPECT_NE(ra.latencies_ms, rb.latencies_ms);
}

TEST(IntegrationTest, EnergyMeteredOverMeasurementWindow) {
  ExperimentRunner runner(small_layout(), quick_config(ProtocolSuite::kDigs));
  const ExperimentResult result = runner.run();
  EXPECT_GT(result.energy_per_delivered_mj, 0.0);
  EXPECT_GT(result.duty_cycle, 0.0);
  EXPECT_LT(result.duty_cycle, 0.5);  // TSCH networks are mostly asleep
  // Each field device metered exactly the measurement window plus drain.
  Network& net = runner.network();
  const double metered =
      (runner.config().duration + runner.config().stat_drain).seconds();
  for (std::uint16_t i = 2; i < net.size(); ++i) {
    EXPECT_NEAR(net.node(NodeId{i}).meter().total_time().seconds(), metered,
                0.2);
  }
}

TEST(IntegrationTest, DigsSurvivesRouterFailure) {
  // Kill the most-used relay mid-measurement: DiGS reroutes via backup
  // parents without (much) loss — the Fig. 11 mechanism.
  TestbedLayout layout = small_layout();
  ExperimentConfig config = quick_config(ProtocolSuite::kDigs);
  config.duration = seconds(static_cast<std::int64_t>(200));

  // First, find a busy relay node from a dry run.
  ExperimentRunner probe(layout, config);
  probe.run();
  Network& probe_net = probe.network();
  NodeId relay = kNoNode;
  int most_children = -1;
  for (std::uint16_t i = 2; i < probe_net.size(); ++i) {
    const int kids = static_cast<int>(
        probe_net.node(NodeId{i}).routing().children().size());
    if (kids > most_children) {
      most_children = kids;
      relay = NodeId{i};
    }
  }
  ASSERT_TRUE(relay.valid());

  ExperimentConfig failure_config = config;
  failure_config.faults.crash(seconds(static_cast<std::int64_t>(60)), relay);
  ExperimentRunner runner(layout, failure_config);
  const ExperimentResult result = runner.run();
  // Flows not sourced at the dead node keep a high PDR.
  const auto& stats = runner.network().stats();
  for (const FlowRecord& flow : stats.flows()) {
    if (flow.source == relay) continue;
    EXPECT_GT(stats.pdr(flow.id, runner.measure_start()), 0.85)
        << "flow from node " << flow.source.value;
  }
  (void)result;
}

TEST(IntegrationTest, JammerDegradesOrchestraMoreThanDigs) {
  // The headline comparison (Fig. 9): under interference DiGS holds a
  // higher PDR than Orchestra thanks to route diversity.
  auto run_suite = [&](ProtocolSuite suite) {
    ExperimentConfig config = quick_config(suite, 9);
    config.num_jammers = 2;
    config.jammer_start_after = seconds(static_cast<std::int64_t>(20));
    config.duration = seconds(static_cast<std::int64_t>(240));
    ExperimentRunner runner(small_layout(), config);
    return runner.run().overall_pdr;
  };
  const double digs_pdr = run_suite(ProtocolSuite::kDigs);
  const double orchestra_pdr = run_suite(ProtocolSuite::kOrchestra);
  EXPECT_GT(digs_pdr, orchestra_pdr - 0.02)
      << "DiGS should not be materially worse under interference";
}

TEST(IntegrationTest, HalfTestbedALayoutSane) {
  const TestbedLayout layout = half_testbed_a();
  EXPECT_EQ(layout.num_nodes(), 20);
  EXPECT_EQ(layout.num_access_points, 2);
  EXPECT_GE(layout.jammer_positions.size(), 4u);
}

TEST(IntegrationTest, LayoutSizesMatchPaper) {
  EXPECT_EQ(testbed_a().num_nodes(), 50);
  EXPECT_EQ(testbed_b().num_nodes(), 44);
  EXPECT_EQ(half_testbed_b().num_nodes(), 19);
  EXPECT_EQ(cooja_150().num_nodes(), 152);  // 150 + 2 APs
}

TEST(IntegrationTest, TestbedBSpansTwoFloors) {
  const TestbedLayout layout = testbed_b();
  std::set<double> floors;
  for (const Position& p : layout.positions) floors.insert(p.z);
  EXPECT_EQ(floors.size(), 2u);
}

TEST(IntegrationTest, PickSourcesDistinctAndDeterministic) {
  const TestbedLayout layout = testbed_a();
  const auto a = pick_sources(layout, 8, 5);
  const auto b = pick_sources(layout, 8, 5);
  EXPECT_EQ(a, b);
  const std::set<NodeId> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), 8u);
  for (const NodeId id : a) {
    EXPECT_GE(id.value, layout.num_access_points);
  }
  const auto c = pick_sources(layout, 8, 6);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace digs
