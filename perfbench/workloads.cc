#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "bench_util.h"
#include "testbed/layouts.h"

namespace perfbench {

namespace {

using digs::ExperimentConfig;
using digs::NodeId;
using digs::ProtocolSuite;
using digs::TestbedLayout;
using digs::TrialSpec;

digs::SimDuration secs(std::int64_t s) { return digs::seconds(s); }

/// The city floor is one fixed deployment (the layout ext_scaling
/// measures); the workload seed varies the flow set, fading and traffic
/// phases, as the paper's repeated flow sets do on a fixed testbed.
constexpr std::uint64_t kCityLayoutSeed = 90;
constexpr int kCityDevices = 2000;
constexpr int kCityDevicesReduced = 700;  // still above the flat-table cutover

std::size_t city_threads() {
  return std::min<std::size_t>(2, digs::bench::hardware_threads());
}

Workload city(const std::string& name, std::uint64_t seed, bool reduced,
              std::size_t shards, std::size_t threads) {
  Workload w;
  w.name = name;
  TrialSpec trial;
  trial.layout = digs::bench::city_floor(
      reduced ? kCityDevicesReduced : kCityDevices, kCityLayoutSeed);
  ExperimentConfig& c = trial.config;
  c.suite = ProtocolSuite::kDigs;
  c.seed = seed;
  c.num_flows = 16;
  c.flow_period = secs(5);
  c.warmup = secs(reduced ? 60 : 150);
  c.duration = secs(reduced ? 30 : 60);
  c.stat_drain = secs(10);
  c.shards = shards;
  c.shard_threads = threads;
  w.trials.push_back(std::move(trial));
  return w;
}

/// Fig. 9 shape: Testbed A under 3 WiFi-like jammers, every suite, many
/// flow sets.
Workload paper_sweep(std::uint64_t seed, bool reduced) {
  Workload w;
  w.name = "paper_sweep";
  const TestbedLayout layout = digs::testbed_a();
  const int flow_sets = reduced ? 2 : 16;
  for (const ProtocolSuite suite :
       {ProtocolSuite::kDigs, ProtocolSuite::kOrchestra,
        ProtocolSuite::kWirelessHart}) {
    for (int i = 0; i < flow_sets; ++i) {
      TrialSpec trial;
      trial.layout = layout;
      ExperimentConfig& c = trial.config;
      c.suite = suite;
      c.seed = seed * 1000 + static_cast<std::uint64_t>(i);
      c.num_flows = 8;
      c.flow_period = secs(5);
      c.warmup = secs(240);
      c.duration = secs(300);
      c.num_jammers = 3;
      c.jammer_start_after = secs(0);
      c.shards = 1;
      c.shard_threads = 1;
      w.trials.push_back(std::move(trial));
    }
  }
  return w;
}

/// Every fault and defence the simulator has, on at once: relay crash
/// cycles, tunnel-relay strikes, tunnels + control loops, SlotSwapper
/// epochs, a reactive jammer, oscillator drift and the invariant monitor.
/// Half Testbed A, as in the downlink/churn/jamming extension benches: on
/// the full Testbed A this composition trips tunnel invariant violations in
/// about a third of its trials (README.md, "Known findings").
Workload paper_churn(std::uint64_t seed, bool reduced) {
  Workload w;
  w.name = "paper_churn";
  const TestbedLayout layout = digs::half_testbed_a();
  const int seeds = reduced ? 2 : 24;
  for (int i = 0; i < seeds; ++i) {
    TrialSpec trial;
    trial.layout = layout;
    ExperimentConfig& c = trial.config;
    c.suite = ProtocolSuite::kDigs;
    c.seed = seed * 1000 + static_cast<std::uint64_t>(i);
    c.num_flows = 4;
    c.flow_period = secs(5);
    c.warmup = secs(120);
    c.duration = secs(240);
    // A mid-network relay cycles down 30 s / up 60 s, twice.
    c.faults.crash_cycle(secs(30), NodeId{10}, secs(30), secs(60), 2);
    // Three strikes on the relay carrying the deepest primary tunnel.
    c.crash_tunnel_relay_after = secs(60);
    c.crash_tunnel_relay_downtime = secs(30);
    c.crash_tunnel_relay_cycles = 3;
    c.enable_tunnels = true;
    c.control_loops = 2;
    c.control_period = secs(2);
    c.control_deadline = secs(5);
    c.randomize_schedule = true;
    c.randomize_epoch = secs(15);
    c.num_reactive_jammers = 1;
    c.jammer_start_after = secs(0);
    c.clock_ppm = 40.0;
    c.monitor_invariants = true;
    c.shards = 1;
    c.shard_threads = 1;
    w.trials.push_back(std::move(trial));
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool reduced) {
  if (name == "city_storm") return city(name, seed, reduced, 1, 1);
  if (name == "city_sharded") {
    return city(name, seed, reduced, 8, city_threads());
  }
  if (name == "paper_sweep") return paper_sweep(seed, reduced);
  if (name == "paper_churn") return paper_churn(seed, reduced);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
