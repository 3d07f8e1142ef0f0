// Fig. 11 — Performance when router nodes fail on Testbed A.
// Paper: after turning off 4 nodes on the routing graph in turn, 6 of 8
// Orchestra flows become (temporarily) disconnected while all DiGS flows
// keep a 100% PDR through backup routes (a); the micro-benchmark (b) shows
// Orchestra losing packet ~34 and recovering after ~10 s; DiGS also saves
// 9.01 mW per received packet (c).
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "testbed/experiment.h"

namespace {

using namespace digs;

/// Finds up to `count` nodes "on the routing graph" of the active flows
/// (the paper kills such nodes): walk each flow source's primary route and
/// collect the most-used non-AP relays.
std::vector<NodeId> find_relays(ProtocolSuite suite, int count,
                                std::uint64_t seed) {
  ExperimentConfig config;
  config.suite = suite;
  config.seed = seed;
  config.num_flows = 8;
  config.warmup = seconds(static_cast<std::int64_t>(240));
  config.duration = seconds(static_cast<std::int64_t>(30));
  config.num_jammers = 0;
  ExperimentRunner runner(testbed_a(), config);
  runner.run();
  Network& net = runner.network();

  std::map<std::uint16_t, int> usage;
  for (const FlowRecord& flow : net.stats().flows()) {
    NodeId hop = net.node(flow.source).routing().best_parent();
    int guard = 0;
    while (hop.valid() && hop.value >= 2 && guard++ < 32) {
      ++usage[hop.value];
      hop = net.node(hop).routing().best_parent();
    }
  }
  std::vector<std::pair<int, NodeId>> ranked;
  for (const auto& [id, uses] : usage) {
    ranked.emplace_back(uses, NodeId{id});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<NodeId> relays;
  for (int i = 0; i < count && i < static_cast<int>(ranked.size()); ++i) {
    relays.push_back(ranked[i].second);
  }
  return relays;
}

/// Everything one repetition contributes to the figure: aggregate samples
/// plus the per-flow delivery pattern for the (b) micro-benchmark (only the
/// last repetition's pattern is printed, matching the sequential loop).
struct RunProduct {
  std::vector<double> window_pdrs;  // one per (flow, failure) window
  int disconnected = 0;
  double energy_mj = 0.0;
  std::vector<std::pair<std::uint16_t, std::string>> delivery_30_45;
};

RunProduct run_one(ProtocolSuite suite, int run) {
  const std::uint64_t seed = 11'000 + run;
  // "4 nodes on the routing graph": relays on the current protocol's
  // own routes, found by a probe run.
  const auto relays = find_relays(suite, 4, seed);

  ExperimentConfig config;
  config.suite = suite;
  config.seed = seed;
  config.num_flows = 8;
  config.flow_period = seconds(static_cast<std::int64_t>(5));
  config.warmup = seconds(static_cast<std::int64_t>(240));
  config.duration = seconds(static_cast<std::int64_t>(400));
  config.num_jammers = 0;
  // Turn the 4 relays off in turn, 25 s apart (faster than a repair
  // completes, so the damage compounds as in the paper), starting
  // 100 s into the measurement window.
  for (std::size_t k = 0; k < relays.size(); ++k) {
    config.faults.crash(seconds(static_cast<std::int64_t>(100 + 25 * k)),
                        relays[k]);
  }
  ExperimentRunner runner(testbed_a(), config);
  const ExperimentResult result = runner.run();

  RunProduct product;
  product.energy_mj = result.energy_per_delivered_mj;
  const auto& stats = runner.network().stats();
  for (const FlowRecord& flow : stats.flows()) {
    // Flows sourced at a killed node are excluded (their loss is
    // trivial, not a routing property).
    bool source_killed = false;
    for (const FaultEvent& failure : config.faults.events()) {
      if (failure.node == flow.source) source_killed = true;
    }
    if (source_killed) continue;
    // The paper measures delivery while the network absorbs each
    // failure: per-flow PDR over the minute following every kill.
    for (const FaultEvent& failure : config.faults.events()) {
      const SimTime at = runner.measure_start() + failure.at;
      const double pdr =
          stats.pdr(flow.id, at, at + seconds(static_cast<std::int64_t>(60)));
      product.window_pdrs.push_back(pdr);
      if (pdr < 0.999) ++product.disconnected;
    }
  }
  for (const FlowRecord& flow : stats.flows()) {
    std::string pattern;
    for (std::uint32_t seq = 30; seq <= 45; ++seq) {
      pattern.push_back(stats.was_delivered(flow.id, seq) ? '.' : 'X');
    }
    product.delivery_30_45.emplace_back(flow.id.value, pattern);
  }
  return product;
}

}  // namespace

int main() {
  bench::header("fig11_node_failure",
                "Fig. 11 - DiGS vs Orchestra with node failure, Testbed A");
  const int runs = bench::default_runs(4);  // paper repeats 34 times
  std::printf("repetitions per suite: %d (paper: 34)\n", runs);

  for (const ProtocolSuite suite :
       {ProtocolSuite::kDigs, ProtocolSuite::kOrchestra}) {
    Cdf flow_pdr;
    Cdf energy_mj;
    int disconnected_flows = 0;
    int total_flows = 0;

    const std::vector<RunProduct> products = parallel_map(
        runs, [suite](int run) { return run_one(suite, run); });
    for (const RunProduct& product : products) {
      for (const double pdr : product.window_pdrs) flow_pdr.add(pdr);
      total_flows += static_cast<int>(product.window_pdrs.size());
      disconnected_flows += product.disconnected;
      energy_mj.add(product.energy_mj);
    }

    bench::section(std::string("suite: ") + to_string(suite));
    std::printf("(a) per-flow PDR in the minute after each failure\n");
    bench::print_boxplot(flow_pdr, "flow PDR");
    std::printf("    (flow, failure) windows below 100%%: %d / %d (%.1f%%)\n",
                disconnected_flows, total_flows,
                total_flows ? 100.0 * disconnected_flows / total_flows : 0.0);
    std::printf("(c) energy per delivered packet\n");
    bench::print_cdf(energy_mj, "energy/packet", "mJ");

    // (b) micro-benchmark around the first failure (packet ~34 at 5 s
    // period with failure 100+240 s after start).
    std::printf("(b) micro-benchmark: packets 30-45 of the last run\n");
    for (const auto& [flow_id, pattern] : products.back().delivery_30_45) {
      std::printf("    flow %2u: %s\n", flow_id, pattern.c_str());
    }
  }

  bench::section("paper expectation");
  std::printf(
      "  Orchestra: several flows disconnected until RPL repair (~10 s\n"
      "  outage around the failure); DiGS: near-100%% PDR via backup\n"
      "  parents, and a large energy-per-received-packet advantage.\n");
  return 0;
}
