// Micro-benchmarks (google-benchmark) for the hot paths of the simulator:
// event queue, PRR lookup, schedule resolution, medium SINR evaluation,
// and the centralized graph-route computation.
//
// The binary has a custom main: after the google-benchmark suite it times
// the 150-node idle-heavy scenario under both slot drivers (schedule-driven
// engine vs. per-slot polling) plus a city-scale busy-slot row (the
// formation-phase EB storm the cell-indexed reception pipeline targets) and
// writes slots/s + events/s to BENCH_slot_engine.json in the working
// directory so future PRs can track the trajectory.
//
// DIGS_PERF_SMOKE=1 skips everything except a reduced busy-slot row and
// gates it against the committed bench/perf_baseline.json (path override:
// DIGS_PERF_BASELINE): >20% below the baseline slots/s exits nonzero. The
// smoke takes best-of-3 to damp scheduler noise and always runs with the
// phase profiler on; the baseline stores the per-phase ns breakdown, so a
// failing gate names the worst-regressing DIGS_PROF phases (baseline vs
// current ns) instead of just the end-to-end ratio. The baseline should be
// (re)measured on the CI host via DIGS_PERF_WRITE_BASELINE=1.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/prof.h"
#include "manager/graph_router.h"
#include "phy/medium.h"
#include "phy/prr.h"
#include "sched/digs_scheduler.h"
#include "sim/simulator.h"
#include "testbed/experiment.h"
#include "testbed/layouts.h"

namespace {

using namespace digs;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    int counter = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(SimTime{(i * 7919) % 100000}, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_PrrTableLookup(benchmark::State& state) {
  PrrTable table(110);
  double sinr = -10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.prr(sinr));
    sinr += 0.01;
    if (sinr > 20.0) sinr = -10.0;
  }
}
BENCHMARK(BM_PrrTableLookup);

void BM_PrrExact(benchmark::State& state) {
  double sinr = -10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ieee802154_prr(sinr, 110));
    sinr += 0.01;
    if (sinr > 20.0) sinr = -10.0;
  }
}
BENCHMARK(BM_PrrExact);

void BM_ScheduleActiveCells(benchmark::State& state) {
  SchedulerConfig config;
  DigsScheduler scheduler(config);
  Schedule schedule;
  RoutingView view;
  view.id = NodeId{5};
  view.num_access_points = 2;
  view.best_parent = NodeId{0};
  view.second_best_parent = NodeId{1};
  std::vector<ChildEntry> children;
  for (std::uint16_t c = 10; c < 18; ++c) {
    children.push_back(ChildEntry{NodeId{c}, c % 2 == 0, {}});
  }
  view.children = children;
  scheduler.rebuild(schedule, view);
  std::uint64_t asn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule.active_cells(asn++));
  }
}
BENCHMARK(BM_ScheduleActiveCells);

void BM_SchedulerRebuild(benchmark::State& state) {
  SchedulerConfig config;
  DigsScheduler scheduler(config);
  RoutingView view;
  view.id = NodeId{5};
  view.num_access_points = 2;
  view.best_parent = NodeId{0};
  view.second_best_parent = NodeId{1};
  std::vector<ChildEntry> children;
  for (std::uint16_t c = 10; c < 10 + state.range(0); ++c) {
    children.push_back(ChildEntry{NodeId{c}, c % 2 == 0, {}});
  }
  view.children = children;
  for (auto _ : state) {
    Schedule schedule;
    scheduler.rebuild(schedule, view);
    benchmark::DoNotOptimize(schedule.total_cells());
  }
}
BENCHMARK(BM_SchedulerRebuild)->Arg(2)->Arg(8)->Arg(32);

void BM_MediumReceptionProbability(benchmark::State& state) {
  const TestbedLayout layout = testbed_a();
  Medium medium(MediumConfig{}, layout.positions, 7);
  TransmissionAttempt tx;
  tx.sender = NodeId{10};
  tx.channel = 5;
  tx.frame_bytes = 110;
  tx.tx_power_dbm = layout.tx_power_dbm;
  std::vector<TransmissionAttempt> concurrent{tx};
  std::uint64_t slot = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(medium.reception_probability(
        tx, NodeId{11}, slot++, SimTime{0}, concurrent));
  }
}
BENCHMARK(BM_MediumReceptionProbability);

void BM_CentralGraphRoutes(benchmark::State& state) {
  const TestbedLayout layout =
      state.range(0) == 50 ? testbed_a() : cooja_150();
  const TopologySnapshot topo = make_topology_snapshot(layout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_graph_routes(topo));
  }
}
BENCHMARK(BM_CentralGraphRoutes)->Arg(50)->Arg(152);

// --- slot-engine macro benchmark (custom main below) ---

struct SlotEngineRun {
  double wall_s{0};
  std::uint64_t slots{0};
  std::uint64_t events{0};
  double pdr{0};
};

// 150 nodes + 2 APs, 4 slow flows (30 s period): after formation nearly all
// slots are idle for nearly all nodes, which is exactly the regime the
// schedule-driven engine targets. Both drivers run the identical scenario
// (same seed, bit-identical results per the equivalence suite); only the
// steady-state window is timed — during formation every node scans every
// slot, so both drivers necessarily do the same full-network work there.
//
// The primary (idle-heavy) row uses the centralized WirelessHART suite:
// once routes and schedules are distributed, nodes transmit only in their
// scheduled flow/EB cells, so almost every slot is pure listening or sleep
// and the engine can skip or settle it. DiGS is the secondary row: its
// trickle beacons and shared routing cells keep a large fraction of slots
// transmission-capable, which bounds how much any schedule-driven driver
// can skip.
SlotEngineRun run_150(ProtocolSuite suite, bool use_slot_engine) {
  ExperimentConfig config;
  config.suite = suite;
  config.seed = 42;
  config.num_flows = 4;
  config.flow_period = seconds(static_cast<std::int64_t>(30));
  config.warmup = seconds(static_cast<std::int64_t>(240));
  config.duration = seconds(static_cast<std::int64_t>(1200));
  config.num_jammers = 0;
  config.use_slot_engine = use_slot_engine;
  ExperimentRunner runner(cooja_150(), config);
  Network& net = runner.network();

  net.start();
  net.run_for(config.warmup);  // formation (untimed)
  const std::uint64_t warm_slots = net.current_asn();
  const std::uint64_t warm_events = net.sim().events_executed();

  const auto t0 = std::chrono::steady_clock::now();
  net.run_for(config.duration);
  const auto t1 = std::chrono::steady_clock::now();

  SlotEngineRun run;
  run.wall_s = std::chrono::duration<double>(t1 - t0).count();
  run.slots = net.current_asn() - warm_slots;
  run.events = net.sim().events_executed() - warm_events;
  run.pdr = net.stats().overall_pdr(SimTime{0} + config.warmup,
                                    SimTime{0} + config.warmup +
                                        config.duration);
  return run;
}

double slots_per_s(const SlotEngineRun& r) {
  return r.wall_s > 0 ? static_cast<double>(r.slots) / r.wall_s : 0.0;
}
double events_per_s(const SlotEngineRun& r) {
  return r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
}

struct SuiteRow {
  const char* key;
  SlotEngineRun polled;
  SlotEngineRun engine;
  double speedup;
};

SuiteRow measure_suite(const char* key, ProtocolSuite suite) {
  SuiteRow row;
  row.key = key;
  row.polled = run_150(suite, false);
  row.engine = run_150(suite, true);
  row.speedup = row.polled.wall_s > 0 && row.engine.wall_s > 0
                    ? row.polled.wall_s / row.engine.wall_s
                    : 0.0;

  const auto print_run = [&](const char* name, const SlotEngineRun& r) {
    std::printf(
        "%-14s %-7s wall=%.3f s  slots=%llu (%.3g slots/s)  events=%llu "
        "(%.3g events/s)  pdr=%.3f\n",
        key, name, r.wall_s, static_cast<unsigned long long>(r.slots),
        slots_per_s(r), static_cast<unsigned long long>(r.events),
        events_per_s(r), r.pdr);
  };
  print_run("polled", row.polled);
  print_run("engine", row.engine);
  std::printf("%-14s speedup (wall-clock, same simulated span): %.2fx\n", key,
              row.speedup);
  return row;
}

void write_suite_json(std::FILE* out, const SuiteRow& row, bool last) {
  std::fprintf(out,
               "  \"%s\": {\n"
               "    \"polled\": {\"wall_s\": %.4f, \"slots_per_s\": %.1f, "
               "\"events_per_s\": %.1f, \"events\": %llu},\n"
               "    \"engine\": {\"wall_s\": %.4f, \"slots_per_s\": %.1f, "
               "\"events_per_s\": %.1f, \"events\": %llu},\n"
               "    \"speedup\": %.3f,\n"
               "    \"pdr_identical\": %s\n"
               "  }%s\n",
               row.key, row.polled.wall_s, slots_per_s(row.polled),
               events_per_s(row.polled),
               static_cast<unsigned long long>(row.polled.events),
               row.engine.wall_s, slots_per_s(row.engine),
               events_per_s(row.engine),
               static_cast<unsigned long long>(row.engine.events), row.speedup,
               row.polled.pdr == row.engine.pdr ? "true" : "false", last ? "" : ",");
}

// --- city-scale busy-slot row ---
//
// The opposite regime from the idle-heavy 150-node scenario: a city floor
// during network formation, where nearly every node scans every slot and
// the wall-clock lives in the cell-indexed reception pipeline (bucket
// gather, CSR row lookup, batched fading). This is the row the perf-smoke
// regression gate watches.

struct BusySlotRun {
  int devices{0};
  double window_s{0};  // simulated seconds timed
  double wall_s{0};
  std::uint64_t slots{0};
  double slots_per_s{0};
  std::size_t shards{1};
  std::size_t shard_threads{1};  // effective worker count after clamping
  double imbalance{0};           // max/mean per-shard busy ns (prof only)
  std::string prof;  // DIGS_PROF phase breakdown (empty when off)
  std::uint64_t phase_ns[prof::kNumPhases] = {};  // raw totals (prof only)
};

BusySlotRun run_busy_slot(int devices, std::int64_t warmup_s,
                          std::int64_t window_s) {
  ExperimentConfig config;
  config.suite = ProtocolSuite::kDigs;
  config.seed = 90;
  config.num_flows = 8;
  config.flow_period = seconds(std::int64_t{5});
  config.num_jammers = 0;
  ExperimentRunner runner(bench::city_floor(devices, 90), config);
  Network& net = runner.network();
  net.start();
  // Untimed warmup: ride past the quiet opening (only the APs beacon, and
  // the engine skips transmitter-free slots entirely) into the EB storm,
  // where enough nodes have joined that every slot executes with most of
  // the network scanning — the regime the reception pipeline is built for.
  net.run_for(seconds(warmup_s));

  const bool prof_on = prof::enabled();
  if (prof_on) prof::reset();
  const std::uint64_t slots0 = net.current_asn();
  const auto t0 = std::chrono::steady_clock::now();
  net.run_for(seconds(window_s));
  const auto t1 = std::chrono::steady_clock::now();

  BusySlotRun run;
  run.devices = devices;
  run.window_s = static_cast<double>(window_s);
  run.wall_s = std::chrono::duration<double>(t1 - t0).count();
  run.slots = net.current_asn() - slots0;
  run.slots_per_s =
      run.wall_s > 0 ? static_cast<double>(run.slots) / run.wall_s : 0.0;
  run.shards = net.num_shards();
  run.shard_threads = net.num_shard_threads();
  if (prof_on) {
    run.prof = prof::json();
    for (int p = 0; p < prof::kNumPhases; ++p) {
      run.phase_ns[p] = prof::total_ns(static_cast<prof::Phase>(p));
    }
    // Busiest shard's cumulative region time over the mean (1.0 = perfect
    // balance); only meaningful when the run was actually sharded.
    const std::vector<std::uint64_t>& busy = net.shard_busy_ns();
    std::uint64_t max = 0;
    std::uint64_t sum = 0;
    for (const std::uint64_t ns : busy) {
      if (ns > max) max = ns;
      sum += ns;
    }
    if (sum > 0) {
      run.imbalance = static_cast<double>(max) *
                      static_cast<double>(busy.size()) /
                      static_cast<double>(sum);
    }
  }
  return run;
}

void print_busy_slot(const BusySlotRun& r) {
  std::printf(
      "busy_slot city-%d  window=%.0f s sim  wall=%.3f s  slots=%llu "
      "(%.3g slots/s)\n",
      r.devices, r.window_s, r.wall_s,
      static_cast<unsigned long long>(r.slots), r.slots_per_s);
  std::fflush(stdout);
}

void write_busy_slot_json(std::FILE* out, const BusySlotRun& r) {
  std::fprintf(out,
               "  \"busy_slot\": {\n"
               "    \"devices\": %d, \"window_s\": %.1f, \"wall_s\": %.4f, "
               "\"slots\": %llu, \"slots_per_s\": %.1f, "
               "\"shards\": %zu, \"shard_threads\": %zu, \"imbalance\": %.3f",
               r.devices, r.window_s, r.wall_s,
               static_cast<unsigned long long>(r.slots), r.slots_per_s,
               r.shards, r.shard_threads, r.imbalance);
  if (!r.prof.empty()) std::fprintf(out, ",\n    \"prof\": %s", r.prof.c_str());
  std::fprintf(out, "\n  }\n");
}

void report_slot_engine() {
  std::printf("\n--- slot engine: 150-node scenarios (steady state) ---\n");
  const SuiteRow idle =
      measure_suite("idle_heavy_wh", ProtocolSuite::kWirelessHart);
  const SuiteRow digs = measure_suite("beacon_heavy_digs", ProtocolSuite::kDigs);

  std::printf("\n--- busy slot: city-scale formation (EB storm) ---\n");
  const BusySlotRun busy = run_busy_slot(2000, 120, 60);
  print_busy_slot(busy);

  std::FILE* out = std::fopen("BENCH_slot_engine.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not write BENCH_slot_engine.json\n");
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"scenario\": \"cooja150, 4 flows @30s, 240s formation "
               "(untimed) + 1200s steady state (timed); busy_slot row: "
               "city-2000 floor, 120s untimed warmup then 60s of the "
               "formation EB storm (timed)\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"nodes\": 152,\n"
               "  \"simulated_s\": %.1f,\n",
               bench::hardware_threads(),
               static_cast<double>(idle.polled.slots) * 0.01);
  write_suite_json(out, idle, false);
  write_suite_json(out, digs, false);
  write_busy_slot_json(out, busy);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_slot_engine.json\n");
}

// --- DIGS_PERF_SMOKE=1: reduced busy-slot row vs. committed baseline ---

/// Whole-file slurp (empty on failure). The baseline is written by this
/// binary (flat keys, unique names), so substring scans are sufficient —
/// no JSON library in the container.
std::string read_file(const char* path) {
  std::FILE* in = std::fopen(path, "r");
  if (in == nullptr) return {};
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, in)) > 0) {
    text.append(buf, got);
  }
  std::fclose(in);
  return text;
}

/// Extracts the number following `"key":`; -1 when absent.
double find_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::atof(text.c_str() + pos + needle.size());
}

int run_perf_smoke() {
  const char* baseline_path = "perf_baseline.json";
  if (const char* env = std::getenv("DIGS_PERF_BASELINE")) {
    baseline_path = env;
  }
  // Read the baseline first: a gate without one measures nothing, so a
  // missing or malformed file fails before the runs instead of passing.
  const bool write_baseline =
      std::getenv("DIGS_PERF_WRITE_BASELINE") != nullptr;
  const std::string baseline_text = read_file(baseline_path);
  const double baseline = find_number(baseline_text, "slots_per_s");
  if (!write_baseline && baseline <= 0) {
    std::fprintf(stderr,
                 "perf smoke FAILED: no slots_per_s baseline at %s (run with "
                 "DIGS_PERF_WRITE_BASELINE=1 to create it)\n",
                 baseline_path);
    return 1;
  }
  // The smoke always profiles: both the committed baseline and the current
  // run carry the same per-phase clock overhead, and a failing gate can
  // then attribute the regression to a slot-loop phase.
  prof::force_enabled(true);
  std::printf("perf smoke: city busy-slot row, best of 3\n");
  BusySlotRun best;
  for (int i = 0; i < 3; ++i) {
    const BusySlotRun run = run_busy_slot(500, 90, 120);
    print_busy_slot(run);
    if (run.slots_per_s > best.slots_per_s) best = run;
  }

  if (write_baseline) {
    std::FILE* out = std::fopen(baseline_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "could not write %s\n", baseline_path);
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"scenario\": \"city-500 floor, 90s untimed warmup then "
                 "120s of the formation EB storm, best of 3, profiler on "
                 "(DIGS_PERF_SMOKE)\",\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"slots_per_s\": %.1f,\n"
                 "  \"prof_ns\": {",
                 bench::hardware_threads(), best.slots_per_s);
    for (int p = 0; p < prof::kNumPhases; ++p) {
      std::fprintf(out, "%s\"%s\": %llu", p == 0 ? "" : ", ",
                   prof::phase_name(static_cast<prof::Phase>(p)),
                   static_cast<unsigned long long>(best.phase_ns[p]));
    }
    std::fprintf(out, "}\n}\n");
    std::fclose(out);
    std::printf("wrote baseline %s (%.3g slots/s)\n", baseline_path,
                best.slots_per_s);
    return 0;
  }

  const double ratio = best.slots_per_s / baseline;
  // The host's thread count next to the baseline's: a baseline recorded on
  // different hardware does not measure this host.
  std::printf(
      "perf smoke: %.3g slots/s (hardware_threads %u) vs baseline %.3g "
      "(hardware_threads %.0f) (%.2fx)\n",
      best.slots_per_s, bench::hardware_threads(), baseline,
      find_number(baseline_text, "hardware_threads"), ratio);
  if (ratio < 0.8) {
    std::fprintf(stderr,
                 "perf smoke FAILED: busy-slot throughput regressed >20%% "
                 "(%.2fx of baseline)\n",
                 ratio);
    // Attribute the regression: rank the slot-loop phases by absolute ns
    // growth over the baseline breakdown (the windows are identical, so
    // raw ns are comparable) and name the worst offenders.
    struct PhaseDelta {
      const char* name;
      double base_ns;
      double cur_ns;
    };
    std::vector<PhaseDelta> deltas;
    for (int p = 0; p < prof::kNumPhases; ++p) {
      const auto phase = static_cast<prof::Phase>(p);
      if (phase == prof::kSlotTotal) continue;  // the sum, not a phase
      const double base_ns = find_number(baseline_text, prof::phase_name(phase));
      if (base_ns < 0) continue;  // pre-prof_ns baseline format
      deltas.push_back(PhaseDelta{prof::phase_name(phase), base_ns,
                                  static_cast<double>(best.phase_ns[p])});
    }
    if (deltas.empty()) {
      std::fprintf(stderr,
                   "(baseline has no prof_ns breakdown; regenerate it with "
                   "DIGS_PERF_WRITE_BASELINE=1 for phase attribution)\n");
    } else {
      std::sort(deltas.begin(), deltas.end(),
                [](const PhaseDelta& a, const PhaseDelta& b) {
                  return a.cur_ns - a.base_ns > b.cur_ns - b.base_ns;
                });
      std::fprintf(stderr, "worst-regressing phases (baseline -> current):\n");
      const std::size_t top = std::min<std::size_t>(5, deltas.size());
      for (std::size_t i = 0; i < top; ++i) {
        const PhaseDelta& d = deltas[i];
        std::fprintf(stderr, "  %-14s %12.0f ns -> %12.0f ns (%+.0f%%)\n",
                     d.name, d.base_ns, d.cur_ns,
                     d.base_ns > 0
                         ? 100.0 * (d.cur_ns - d.base_ns) / d.base_ns
                         : 0.0);
      }
    }
    return 1;
  }
  std::printf("perf smoke OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* env = std::getenv("DIGS_PERF_SMOKE");
      env != nullptr && env[0] == '1') {
    return run_perf_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report_slot_engine();
  return 0;
}
