// Repo benchmark driver: runs one workload (see workloads.h) through the
// public ExperimentRunner API for a time budget and prints every metric by
// name and unit, then one JSON line that run.py forwards.
//
//   digs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans FILE] [--commit ID]
//   digs_perfbench --selftest
//
// A pass is the workload's whole batch of trials, run back to back. Passes
// repeat within the budget; host times come from the fastest pass
// (setup time from the median pass). Every pass of a run has the same
// inputs, so every pass must produce the same result digest; the
// modelled-network metrics come from the first pass.
//
// --trace 0 reports the end-to-end metrics with all tracing off. --trace 1
// alternates untraced and traced passes: traced passes turn on the DIGS_PROF
// slot-loop phases and record bench-side spans around the calls into each
// layer, and the per-layer metrics are all read from the fastest traced
// pass (so sums such as slot + outside-slot = run hold exactly).
// The standalone Medium and graph-router probes also run only when traced.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/prof.h"
#include "common/stats.h"
#include "manager/graph_router.h"
#include "phy/medium.h"
#include "routing/digs_routing.h"
#include "routing/rpl_routing.h"
#include "testbed/experiment.h"
#include "testbed/layouts.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using digs::ExperimentResult;
using digs::ExperimentRunner;
using digs::TrialSpec;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- result digest ---------------------------------------------------------

/// FNV-1a over the bit patterns of every ExperimentResult field, vectors
/// length-prefixed, so any changed double, count or element shows.
class Digest {
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

std::uint64_t digest(const ExperimentResult& r) {
  Digest d;
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
  for (const digs::FlowId id : r.flow_ids) d.u64(id.value);
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
  return d.value();
}

std::uint64_t pass_digest(const std::vector<ExperimentResult>& results) {
  Digest d;
  for (const ExperimentResult& r : results) d.u64(digest(r));
  return d.value();
}

// --- spans -------------------------------------------------------------------

/// Bench-side spans, kept in memory and written as JSON lines at exit. Each
/// span names its parent, so a layer's self time (duration minus the time
/// its children cover) is computed at write time. Off: open() returns -1
/// and close() ignores it, with no clock read.
class SpanLog {
 public:
  void set_enabled(bool on) { on_ = on; }

  int open(const char* name, int parent) {
    if (!on_) return -1;
    spans_.push_back(Span{name, parent, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_ns();
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"start_ns\": %llu, \"dur_ns\": %llu, \"self_ns\": %llu}\n",
                   i, s.name, s.parent,
                   static_cast<unsigned long long>(s.start - origin),
                   static_cast<unsigned long long>(s.end - s.start),
                   static_cast<unsigned long long>(s.end - s.start -
                                                   child_ns[i]));
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    int parent;
    std::uint64_t start;
    std::uint64_t end;
  };
  bool on_{false};
  std::vector<Span> spans_;
};

// --- one pass ------------------------------------------------------------------

/// Counts read from public accessors after each trial; exact and
/// deterministic, summed over the pass.
struct Counters {
  std::uint64_t events{0};
  std::uint64_t data_tx_attempts{0};
  std::uint64_t eb_sent{0};
  std::uint64_t parent_switches{0};
  std::uint64_t trickle_tx{0};
  std::uint64_t trickle_suppressed{0};
  std::uint64_t installs{0};
  std::uint64_t slots_simulated{0};
  std::uint64_t generated{0};
  std::uint64_t delivered{0};
  std::uint64_t dropped{0};
  std::array<std::uint64_t, digs::kNumDropReasons> drops{};
};

struct Pass {
  bool traced{false};
  std::uint64_t wall_ns{0};
  std::uint64_t setup_ns{0};
  std::uint64_t run_ns{0};
  double sim_s{0};
  std::uint64_t digest{0};
  std::size_t failed{0};
  bool structure_ok{true};
  std::vector<std::string> failures;
  std::size_t shards_used{0};
  std::size_t threads_used{0};
  double shard_imbalance{0};  // max over trials (traced passes only)
  std::array<std::uint64_t, digs::prof::kNumPhases> phase_ns{};
  std::array<std::uint64_t, digs::prof::kNumPhases> phase_calls{};
  Counters counters;
  std::vector<ExperimentResult> results;
};

template <typename Routing>
bool add_routing_counters(const digs::RoutingProtocol& routing,
                          Counters& c) {
  const auto* r = dynamic_cast<const Routing*>(&routing);
  if (r == nullptr) return false;
  c.parent_switches += r->parent_switches();
  c.trickle_tx += r->trickle().transmissions();
  c.trickle_suppressed += r->trickle().suppressions();
  return true;
}

void harvest(digs::Network& net, Counters& c) {
  c.events += net.sim().events_executed();
  c.slots_simulated += net.current_asn();
  for (std::size_t i = 0; i < net.size(); ++i) {
    const digs::Node& node =
        net.node(digs::NodeId{static_cast<std::uint16_t>(i)});
    c.data_tx_attempts += node.mac().data_tx_attempts();
    c.eb_sent += node.mac().eb_sent();
    if (!add_routing_counters<digs::DigsRouting>(node.routing(), c)) {
      add_routing_counters<digs::RplRouting>(node.routing(), c);
    }
  }
  if (const digs::CentralManager* manager = net.manager()) {
    c.installs += manager->installs();
  }
  const digs::FlowStatsCollector& stats = net.stats();
  c.generated += stats.total_generated();
  c.delivered += stats.total_delivered();
  c.dropped += stats.total_dropped();
  for (std::size_t k = 0; k < digs::kNumDropReasons; ++k) {
    c.drops[k] += stats.dropped_by(static_cast<digs::DropReason>(k));
  }
}

/// The per-trial output checks behind `failed`. Structural failures (the
/// result contradicts itself or the run used another shard layout than
/// asked) also make the run incorrect; invariant violations are the
/// modelled protocol's, so they fail the trial only.
void check_trial(const Workload& w, const ExperimentResult& r,
                 const digs::Network& net, std::size_t index, Pass& pass) {
  std::vector<std::string> structural;
  std::vector<std::string> invariants;
  if (r.delivered > r.generated) structural.push_back("delivered > generated");
  if (!(r.overall_pdr >= 0.0 && r.overall_pdr <= 1.0)) {
    structural.push_back("overall PDR outside [0,1]");
  }
  for (const double pdr : r.flow_pdrs) {
    if (!(pdr >= 0.0 && pdr <= 1.0)) {
      structural.push_back("a flow PDR outside [0,1]");
      break;
    }
  }
  const digs::ExperimentConfig& asked = w.trials[index].config;
  if (net.num_shards() != asked.shards ||
      net.num_shard_threads() != asked.shard_threads) {
    structural.push_back("ran " + std::to_string(net.num_shards()) + "x" +
                         std::to_string(net.num_shard_threads()) +
                         " shards x threads, asked " +
                         std::to_string(asked.shards) + "x" +
                         std::to_string(asked.shard_threads));
  }
  if (r.tunnel_violations != 0) {
    invariants.push_back(std::to_string(r.tunnel_violations) +
                         " tunnel invariant violations");
  }
  if (r.swap_epoch_violations != 0) {
    invariants.push_back(std::to_string(r.swap_epoch_violations) +
                         " swap-epoch violations");
  }
  if (structural.empty() && invariants.empty()) return;
  ++pass.failed;
  if (!structural.empty()) pass.structure_ok = false;
  std::string msg = "trial " + std::to_string(index) + " (seed " +
                    std::to_string(w.trials[index].config.seed) + "):";
  for (const std::string& s : structural) msg += " " + s + ";";
  for (const std::string& s : invariants) msg += " " + s + ";";
  pass.failures.push_back(msg);
}

Pass run_pass(const Workload& w, bool traced, SpanLog& spans) {
  namespace prof = digs::prof;
  Pass pass;
  pass.traced = traced;
  prof::force_enabled(traced);
  prof::reset();
  spans.set_enabled(traced);
  const std::uint64_t pass_t0 = now_ns();
  const int pass_span = spans.open("bench.pass", -1);
  for (std::size_t i = 0; i < w.trials.size(); ++i) {
    const TrialSpec& spec = w.trials[i];
    const int trial_span = spans.open("bench.trial", pass_span);

    const std::uint64_t t0 = now_ns();
    const int setup_span = spans.open("testbed.setup", trial_span);
    auto runner = std::make_unique<ExperimentRunner>(spec.layout, spec.config);
    spans.close(setup_span);
    const std::uint64_t t1 = now_ns();
    const int run_span = spans.open("testbed.run", trial_span);
    ExperimentResult result = runner->run();
    spans.close(run_span);
    const std::uint64_t t2 = now_ns();

    const int harvest_span = spans.open("bench.harvest", trial_span);
    digs::Network& net = runner->network();
    harvest(net, pass.counters);
    check_trial(w, result, net, i, pass);
    pass.shards_used = net.num_shards();
    pass.threads_used = net.num_shard_threads();
    if (traced) {
      const std::vector<std::uint64_t>& busy = net.shard_busy_ns();
      std::uint64_t max = 0;
      std::uint64_t sum = 0;
      for (const std::uint64_t ns : busy) {
        max = std::max(max, ns);
        sum += ns;
      }
      if (sum > 0) {
        pass.shard_imbalance = std::max(
            pass.shard_imbalance, static_cast<double>(max) *
                                      static_cast<double>(busy.size()) /
                                      static_cast<double>(sum));
      }
    }
    pass.results.push_back(std::move(result));
    spans.close(harvest_span);
    const int teardown_span = spans.open("testbed.teardown", trial_span);
    runner.reset();
    spans.close(teardown_span);
    spans.close(trial_span);

    pass.setup_ns += t1 - t0;
    pass.run_ns += t2 - t1;
    pass.sim_s +=
        (spec.config.warmup + spec.config.duration + spec.config.stat_drain)
            .seconds();
  }
  spans.close(pass_span);
  pass.wall_ns = now_ns() - pass_t0;
  for (int p = 0; p < prof::kNumPhases; ++p) {
    pass.phase_ns[p] = prof::total_ns(static_cast<prof::Phase>(p));
    pass.phase_calls[p] = prof::calls(static_cast<prof::Phase>(p));
  }
  prof::force_enabled(false);
  spans.set_enabled(false);
  pass.digest = pass_digest(pass.results);
  return pass;
}

// --- probes ----------------------------------------------------------------------

/// Sorts `v` in place.
double median_of(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over repetitions of `fn`'s host time: at least 3 runs, more while
/// under ~0.5 s in total, at most 25.
template <typename Fn>
double median_ns(Fn fn, const char* name, SpanLog& spans, int parent) {
  std::vector<double> samples;
  std::uint64_t spent = 0;
  while (samples.size() < 3 ||
         (samples.size() < 25 && spent < 500'000'000ULL)) {
    const int span = spans.open(name, parent);
    const std::uint64_t t0 = now_ns();
    fn();
    const std::uint64_t dt = now_ns() - t0;
    spans.close(span);
    samples.push_back(static_cast<double>(dt));
    spent += dt;
  }
  return median_of(samples);
}

struct Probes {
  double medium_build_ns{0};
  double graph_routes_ns{0};
};

/// Standalone Medium construction (with its reachability tables) and
/// centralized graph routing on the workload's layout: attributes setup and manager cost from outside the
/// program.
Probes run_probes(const Workload& w, SpanLog& spans) {
  const digs::TestbedLayout& layout = w.trials.front().layout;
  Probes probes;
  spans.set_enabled(true);
  const int parent = spans.open("bench.probes", -1);
  digs::MediumConfig config = ExperimentRunner::default_medium_config();
  config.propagation.path_loss_exponent = layout.path_loss_exponent;
  const std::uint64_t seed = w.trials.front().config.seed;
  probes.medium_build_ns = median_ns(
      [&] {
        // As Network's constructor does: the tables (flat or CSR) are
        // built by build_reachability, not by the constructor itself.
        digs::Medium medium(config, layout.positions, seed);
        medium.build_reachability(layout.tx_power_dbm);
      },
      "phy.medium_build", spans, parent);
  const digs::TopologySnapshot snapshot = digs::make_topology_snapshot(layout);
  probes.graph_routes_ns = median_ns(
      [&] {
        if (digs::compute_graph_routes(snapshot).routes.size() !=
            snapshot.num_nodes) {
          throw std::runtime_error("graph router returned a partial result");
        }
      },
      "manager.graph_routes", spans, parent);
  spans.close(parent);
  spans.set_enabled(false);
  return probes;
}

// --- metrics -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set (VmHWM) of this process image in MB. Not getrusage():
/// Linux carries ru_maxrss across exec, so a child of a larger parent (the
/// Python runner) would report the parent's size.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

struct Tail {
  double percentile{0};
  double value{0};
  std::size_t samples{0};
};

/// The highest percentile with at least 10 samples beyond it (at least the
/// median when there are fewer than 20 samples).
Tail latency_tail(const digs::Cdf& cdf) {
  Tail tail;
  tail.samples = cdf.count();
  if (cdf.empty()) return tail;
  tail.percentile =
      std::max(50.0, 100.0 * (1.0 - 10.0 / static_cast<double>(cdf.count())));
  tail.value = cdf.percentile(tail.percentile);
  return tail;
}

/// Modelled-network aggregates over one pass (deterministic for a seed).
struct Modelled {
  double pdr{0};
  double latency_p50_ms{0};
  Tail tail;
  double energy_mj_per_pkt{0};
  double join_s{0};
  double rejoin_s{0};
  double deadline_miss_rate{0};
  std::uint64_t window_generated{0};
  std::uint64_t window_delivered{0};
  std::uint64_t invariant_violations{0};
  std::uint64_t tunnel_rebuilds{0};
  std::uint64_t swap_epochs{0};
  std::uint64_t swaps_applied{0};
  std::uint64_t swaps_rejected{0};
  std::uint64_t duplicates_suppressed{0};
};

Modelled modelled(const std::vector<ExperimentResult>& results) {
  Modelled m;
  digs::Cdf latency;
  double energy_mj = 0;
  double join_sum = 0;
  std::size_t join_n = 0;
  double rejoin_sum = 0;
  std::size_t rejoin_n = 0;
  std::uint64_t actuations = 0;
  std::uint64_t misses = 0;
  for (const ExperimentResult& r : results) {
    m.window_generated += r.generated;
    m.window_delivered += r.delivered;
    latency.add_all(r.latencies_ms);
    energy_mj += r.energy_per_delivered_mj * static_cast<double>(r.delivered);
    for (const double t : r.join_times_s) join_sum += t;
    join_n += r.join_times_s.size();
    for (const double t : r.rejoin_times_s) rejoin_sum += t;
    rejoin_n += r.rejoin_times_s.size();
    actuations += r.actuations;
    misses += r.actuation_deadline_misses;
    m.invariant_violations += r.invariant_violations;
    m.tunnel_rebuilds += r.tunnel_rebuilds;
    m.swap_epochs += r.swap_epochs;
    m.swaps_applied += r.swaps_applied;
    m.swaps_rejected += r.swaps_rejected;
    m.duplicates_suppressed += r.duplicates_suppressed;
  }
  m.pdr = ratio(static_cast<double>(m.window_delivered),
                static_cast<double>(m.window_generated));
  m.latency_p50_ms = latency.empty() ? 0.0 : latency.median();
  m.tail = latency_tail(latency);
  m.energy_mj_per_pkt =
      ratio(energy_mj, static_cast<double>(m.window_delivered));
  m.join_s = ratio(join_sum, static_cast<double>(join_n));
  m.rejoin_s = ratio(rejoin_sum, static_cast<double>(rejoin_n));
  m.deadline_miss_rate =
      ratio(static_cast<double>(misses), static_cast<double>(actuations));
  return m;
}

/// Host-side metrics over the untraced passes. Pass times are taken at
/// their minimum: on a shared host, interference only ever slows a pass,
/// so the fastest pass is the steadiest estimate of the program's own cost.
/// setup_s is the median of the passes' setups. The memory high-water mark
/// is taken after the first pass: later passes reuse a fragmented heap, so
/// the process peak would grow with the number of passes, i.e. with speed.
std::vector<Metric> end_to_end(const std::vector<Pass>& passes,
                               double rss_mb) {
  std::vector<double> wall;
  std::vector<double> setup;
  std::vector<double> rate;
  for (const Pass& p : passes) {
    if (p.traced) continue;
    wall.push_back(static_cast<double>(p.wall_ns) * 1e-9);
    setup.push_back(static_cast<double>(p.setup_ns) * 1e-9);
    rate.push_back(p.sim_s / (static_cast<double>(p.run_ns) * 1e-9));
  }
  return {
      {"wall_s", *std::min_element(wall.begin(), wall.end()), "s"},
      {"setup_s", median_of(setup), "s"},
      {"sim_rate", *std::max_element(rate.begin(), rate.end()), "sim-s/s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

/// Modelled-network metrics: exact for a seed, so any change is a change
/// in simulated behaviour, never noise.
std::vector<Metric> modelled_metrics(const Modelled& m,
                                     double trial_fail_rate) {
  return {
      {"pdr", m.pdr, "ratio"},
      {"latency_p50_ms", m.latency_p50_ms, "sim-ms"},
      {"latency_tail_ms", m.tail.value, "sim-ms"},
      {"latency_tail_pct", m.tail.percentile, "percentile"},
      {"latency_samples", static_cast<double>(m.tail.samples), "count"},
      {"energy_mj_per_pkt", m.energy_mj_per_pkt, "mJ"},
      {"join_s", m.join_s, "sim-s"},
      {"rejoin_s", m.rejoin_s, "sim-s"},
      {"deadline_miss_rate", m.deadline_miss_rate, "ratio"},
      {"trial_fail_rate", trial_fail_rate, "ratio"},
  };
}

std::vector<Metric> per_layer(const std::vector<Pass>& passes,
                              const Modelled& m, const Probes& probes,
                              double trial_fail_rate) {
  namespace prof = digs::prof;
  // The fastest traced pass (see end_to_end()); its values are reported
  // together so derived sums stay exact.
  const Pass* fastest_traced = nullptr;
  const Pass* fastest_plain = nullptr;
  for (const Pass& pass : passes) {
    const Pass*& fastest = pass.traced ? fastest_traced : fastest_plain;
    if (fastest == nullptr || pass.wall_ns < fastest->wall_ns) fastest = &pass;
  }
  const Pass& p = *fastest_traced;
  const Counters& c = p.counters;
  const auto ns = [&p](prof::Phase phase) {
    return static_cast<double>(p.phase_ns[phase]);
  };
  const auto calls = [&p](prof::Phase phase) {
    return static_cast<double>(p.phase_calls[phase]);
  };
  const double run_ns = static_cast<double>(p.run_ns);
  const double slot_ns = ns(prof::kSlotTotal);
  const double executed = calls(prof::kSlotTotal);
  std::vector<Metric> out = modelled_metrics(m, trial_fail_rate);
  // The digest's top 53 bits, an integer a double holds exactly: a change
  // in any simulated result at a fixed seed changes this value.
  out.push_back({"result.digest",
                 static_cast<double>(passes.front().digest >> 11), "hash"});
  const std::vector<Metric> layers = {
      {"phy.begin_listener_ns", ns(prof::kBeginListener), "ns"},
      {"phy.decode_ns", ns(prof::kDecode), "ns"},
      {"phy.bucket_build_ns", ns(prof::kBucketBuild), "ns"},
      {"phy.ack_resolve_ns", ns(prof::kAckResolve), "ns"},
      {"phy.shard_resolve_ns", ns(prof::kShardResolve), "ns"},
      {"phy.listeners", calls(prof::kBeginListener), "count"},
      {"phy.decodes", calls(prof::kDecode), "count"},
      {"phy.medium_build_ns", probes.medium_build_ns, "ns"},
      {"mac.plan_gather_ns", ns(prof::kPlanGather), "ns"},
      {"mac.deliver_ns", ns(prof::kDeliver), "ns"},
      {"mac.data_tx_attempts", static_cast<double>(c.data_tx_attempts),
       "count"},
      {"mac.eb_sent", static_cast<double>(c.eb_sent), "count"},
      {"mac.attempts_per_delivered",
       ratio(static_cast<double>(c.data_tx_attempts),
             static_cast<double>(c.delivered)),
       "ratio"},
      {"core.wake_pop_ns", ns(prof::kWakePop), "ns"},
      {"core.wake_refresh_ns", ns(prof::kWakeRefresh), "ns"},
      {"core.merge_compact_ns", ns(prof::kMergeCompact), "ns"},
      {"core.slot_ns", slot_ns, "ns"},
      {"core.outside_slot_ns", run_ns - slot_ns, "ns"},
      {"core.slots_executed", executed, "count"},
      {"core.skip_ratio",
       1.0 - ratio(executed, static_cast<double>(c.slots_simulated)),
       "ratio"},
      {"core.invariant_violations",
       static_cast<double>(m.invariant_violations), "count"},
      {"energy.settle_ns", ns(prof::kEnergySettle), "ns"},
      {"sim.events", static_cast<double>(c.events), "count"},
      {"sim.barrier_wait_ns", ns(prof::kBarrierWait), "ns"},
      {"sim.worker_idle_ns", ns(prof::kWorkerIdle), "ns"},
      {"sim.shard_imbalance", p.shard_imbalance, "ratio"},
      {"testbed.setup_ns", static_cast<double>(p.setup_ns), "ns"},
      {"testbed.run_ns", run_ns, "ns"},
      {"manager.graph_routes_ns", probes.graph_routes_ns, "ns"},
      {"manager.installs", static_cast<double>(c.installs), "count"},
      {"routing.parent_switches", static_cast<double>(c.parent_switches),
       "count"},
      {"routing.trickle_tx", static_cast<double>(c.trickle_tx), "count"},
      {"routing.trickle_suppressed",
       static_cast<double>(c.trickle_suppressed), "count"},
      {"routing.tunnel_rebuilds", static_cast<double>(m.tunnel_rebuilds),
       "count"},
      {"sched.swap_epochs", static_cast<double>(m.swap_epochs), "count"},
      {"sched.swap_accept_ratio",
       ratio(static_cast<double>(m.swaps_applied),
             static_cast<double>(m.swaps_applied + m.swaps_rejected)),
       "ratio"},
      {"net.generated", static_cast<double>(c.generated), "count"},
      {"net.delivered", static_cast<double>(c.delivered), "count"},
  };
  out.insert(out.end(), layers.begin(), layers.end());
  for (std::size_t k = 0; k < digs::kNumDropReasons; ++k) {
    out.push_back({std::string("net.drop.") +
                       digs::to_string(static_cast<digs::DropReason>(k)),
                   static_cast<double>(c.drops[k]), "count"});
  }
  out.push_back({"net.unresolved",
                 static_cast<double>(c.generated - c.delivered - c.dropped),
                 "count"});
  out.push_back({"net.duplicates_suppressed",
                 static_cast<double>(m.duplicates_suppressed), "count"});
  out.push_back({"trace_overhead",
                 ratio(static_cast<double>(p.wall_ns),
                       static_cast<double>(fastest_plain->wall_ns)),
                 "ratio"});
  return out;
}

// --- driver --------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool selftest{false};
  std::string spans_path;
  std::string commit{"unknown"};
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
        if (value != "0" && value != "1") return false;
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  // The budget is converted to integer nanoseconds: keep it finite.
  return args.selftest ||
         (have_workload && args.seconds > 0 && args.seconds <= 3600);
}

void print_header(const Args& args, const Workload& w, const Pass& first) {
  std::printf("run header\n");
  std::printf("  workload            %s\n", w.name.c_str());
  std::printf("  seed                %llu\n",
              static_cast<unsigned long long>(args.seed));
  std::printf("  trials per pass     %zu\n", w.trials.size());
  std::printf("  hardware_threads    %u\n",
              std::thread::hardware_concurrency());
  std::printf("  nproc               %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  const digs::ExperimentConfig& asked = w.trials.front().config;
  std::printf("  shards x threads    %zu x %zu (asked %zu x %zu)\n",
              first.shards_used, first.threads_used, asked.shards,
              asked.shard_threads);
  std::printf("  build type          %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("  compiler            %s\n", PERFBENCH_COMPILER);
  std::printf("  git commit          %s\n", args.commit.c_str());
  std::printf("  mode                %s\n",
              args.trace ? "traced (per-layer)" : "untraced (end-to-end)");
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  SpanLog spans;
  std::vector<Pass> passes;
  const std::uint64_t budget_ns =
      static_cast<std::uint64_t>(args.seconds * 1e9);
  const std::uint64_t start = now_ns();
  // Untraced: at least 3 passes. Traced: untraced and traced passes
  // alternate, at least 2 of each. After that a pass starts only if one
  // more pass as long as the last would end inside the budget, so a slow
  // host lengthens the run by little. Only the first pass keeps its
  // results (later ones are checked by digest), so memory does not grow
  // with the number of passes.
  const std::size_t min_passes = args.trace ? 4 : 3;
  double rss_mb = 0;  // high-water mark after the first pass
  const auto fits = [&] {
    return now_ns() - start + passes.back().wall_ns <= budget_ns;
  };
  while (passes.size() < min_passes || fits() ||
         (args.trace && passes.size() % 2 == 1)) {
    const bool traced = args.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass(w, traced, spans));
    if (passes.size() == 1) {
      rss_mb = peak_rss_mb();
    } else {
      std::vector<ExperimentResult>().swap(passes.back().results);
    }
  }
  const Probes probes = args.trace ? run_probes(w, spans) : Probes{};

  const Pass& first = passes.front();
  print_header(args, w, first);
  std::printf("  passes              %zu (%s)\n", passes.size(),
              args.trace ? "alternating untraced/traced" : "untraced");

  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    std::printf("    pass %-3zu %-8s wall %.4f s  setup %.4f s  run %.4f s\n",
                i, p.traced ? "traced" : "untraced",
                static_cast<double>(p.wall_ns) * 1e-9,
                static_cast<double>(p.setup_ns) * 1e-9,
                static_cast<double>(p.run_ns) * 1e-9);
  }

  bool deterministic = true;
  bool structure_ok = true;
  const std::size_t attempted = passes.size() * w.trials.size();
  std::size_t failed = 0;
  for (const Pass& p : passes) {
    deterministic = deterministic && p.digest == first.digest;
    structure_ok = structure_ok && p.structure_ok;
    failed += p.failed;
  }
  const Modelled m = modelled(first.results);

  std::printf("output checks\n");
  std::printf("  result digest       %016llx%s\n",
              static_cast<unsigned long long>(first.digest),
              deterministic ? " (every pass identical)" : " (PASSES DIFFER)");
  for (const std::string& f : first.failures) {
    std::printf("  failed              %s\n", f.c_str());
  }
  std::printf("  trials              %zu attempted, %zu failed\n", attempted,
              failed);
  std::printf("loss ledger (whole run of every trial, first pass)\n");
  const Counters& c = first.counters;
  std::printf("  generated %llu  delivered %llu  dropped %llu  unresolved "
              "%llu\n",
              static_cast<unsigned long long>(c.generated),
              static_cast<unsigned long long>(c.delivered),
              static_cast<unsigned long long>(c.dropped),
              static_cast<unsigned long long>(c.generated - c.delivered -
                                              c.dropped));
  for (std::size_t k = 0; k < digs::kNumDropReasons; ++k) {
    if (c.drops[k] == 0) continue;
    std::printf("    drop %-20s %llu\n",
                digs::to_string(static_cast<digs::DropReason>(k)),
                static_cast<unsigned long long>(c.drops[k]));
  }
  std::printf("  measurement windows: generated %llu, delivered %llu\n",
              static_cast<unsigned long long>(m.window_generated),
              static_cast<unsigned long long>(m.window_delivered));

  const double fail_rate =
      ratio(static_cast<double>(failed), static_cast<double>(attempted));
  if (!args.trace) {
    print_metrics("modelled-network metrics (exact for the seed)",
                  modelled_metrics(m, fail_rate));
  }
  const std::vector<Metric> metrics =
      args.trace ? per_layer(passes, m, probes, fail_rate)
                 : end_to_end(passes, rss_mb);
  print_metrics(args.trace ? "per-layer metrics (fastest traced pass)"
                           : "end-to-end metrics (untraced passes)",
                metrics);

  if (!args.spans_path.empty() && args.trace) {
    if (!spans.write(args.spans_path)) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   args.spans_path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", args.spans_path.c_str());
  }

  const bool correct = deterministic && structure_ok;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  // The result line carries the verdict; a nonzero exit means no result.
  return 0;
}

// --- self-test ---------------------------------------------------------------------

/// Determinism checks at reduced size: the sharded city run matches the
/// serial one, paper_churn repeats itself, and tracing changes no result.
int selftest() {
  SpanLog spans;
  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    std::printf("  %-58s %s\n", what, cond ? "ok" : "FAIL");
    ok = ok && cond;
  };
  const auto digest_of = [&spans](const Workload& w, bool traced) {
    const Pass pass = run_pass(w, traced, spans);
    return pass.structure_ok ? pass.digest : 0;
  };
  std::printf("self-test (reduced sizes)\n");
  const std::uint64_t seed = 7;
  const Workload storm = make_workload("city_storm", seed, true);
  const Workload sharded = make_workload("city_sharded", seed, true);
  const std::uint64_t storm_digest = digest_of(storm, false);
  const std::uint64_t sharded_digest = digest_of(sharded, false);
  expect(storm_digest != 0 && storm_digest == sharded_digest,
         "city_storm == city_sharded");
  expect(sharded_digest == digest_of(sharded, true),
         "city_sharded traced == untraced");
  const Workload churn = make_workload("paper_churn", seed, true);
  const std::uint64_t churn_digest = digest_of(churn, false);
  expect(churn_digest != 0 && churn_digest == digest_of(churn, false),
         "paper_churn run twice");
  expect(churn_digest == digest_of(churn, true),
         "paper_churn traced == untraced");
  const Workload sweep = make_workload("paper_sweep", seed, true);
  const std::uint64_t sweep_digest = digest_of(sweep, false);
  expect(sweep_digest != 0 && sweep_digest == digest_of(sweep, true),
         "paper_sweep traced == untraced");
  std::printf(ok ? "self-test passed\n" : "self-test FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: digs_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE] [--commit ID]\n"
                 "       digs_perfbench --selftest\n");
    return 2;
  }
  try {
    return args.selftest ? perfbench::selftest() : perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "digs_perfbench: %s\n", e.what());
    return 1;
  }
}
