// Extension study (no corresponding paper figure): how both suites scale
// with network size on one floor plan — the question motivating the paper
// ("hundreds of devices over an oil field"). Two regimes:
//
//  * Paper-scale sweep (18..148 devices): DiGS vs Orchestra at constant
//    density, formation time / reliability / latency — the protocol
//    question.
//  * City-scale sweep (1k/5k/10k devices): DiGS only, multiple APs, the
//    simulator question — does the cell-partitioned medium (sparse CSR
//    storage, coupling cutoff) plus the sharded slot pipeline
//    (DIGS_SHARDS x DIGS_SHARD_THREADS) actually carry a single trial to
//    10k nodes, and does sharding pay? The 5k row runs at 1 shard, at
//    8 shards / 1 worker thread (pipeline overhead), and — with >=4
//    hardware threads — at 8 shards / hw threads (speedup); the 10k row
//    repeats sharded with the profiler forced on to measure the pipeline's
//    serial fraction (Amdahl ceiling) and per-shard load imbalance. All
//    sharded runs must be bit-identical to the serial ones.
//
// Writes BENCH_scaling.json (rows carry the effective worker-thread count
// and, on profiled rows, the max/mean per-shard busy-time imbalance).
// Exit status is a gate: nonzero when a city row fails to complete, when
// any sharded run diverges from serial, when the 8-shard/1-thread 5k row
// costs more than 5% over serial, when the measured 10k serial fraction
// reaches 20%, or (only on hardware with enough cores to make the target
// meaningful) when a multi-thread speedup misses its threshold.
//
// DIGS_SCALING_SMOKE=1 runs a reduced city row (for the TSan preset in
// scripts/check.sh): ~300 devices, short windows, 1 shard vs DIGS_SHARDS,
// bit-identity gate only, no JSON.
//
// DIGS_SCALING_CITY_ONLY=1 skips the paper-scale sweep;
// DIGS_SCALING_MIN_DEVICES / DIGS_SCALING_MAX_DEVICES bound which city
// rows run. With DIGS_PROF=1 each city row gets its own phase breakdown
// (profiler reset per row) embedded in its JSON entry.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/prof.h"
#include "testbed/experiment.h"

namespace {

using namespace digs;

/// A constant-density floor: n devices over an area scaled so the mean
/// nearest-neighbor distance matches Testbed A.
TestbedLayout scaled_floor(int devices, std::uint64_t seed) {
  Rng rng(hash_mix(seed, 0x5CA1E));
  TestbedLayout layout;
  layout.name = "scaled-" + std::to_string(devices);
  layout.num_access_points = 2;
  const double area = 31.25 * devices;  // Testbed A: 60x25 m for 48
  const double w = std::sqrt(area * 2.4);
  const double h = area / w;
  layout.positions.push_back(Position{w / 2 - 10, h / 2, 0});
  layout.positions.push_back(Position{w / 2 + 10, h / 2, 0});
  for (int i = 0; i < devices; ++i) {
    layout.positions.push_back(
        Position{rng.uniform(0.0, w), rng.uniform(0.0, h), 0.0});
  }
  return layout;
}

// City-scale layout: bench::city_floor() (shared with micro_core's
// busy-slot row, which must measure the same floor).
using bench::city_floor;

double median_or(const std::vector<double>& values, double fallback) {
  if (values.empty()) return fallback;
  Cdf cdf;
  for (const double v : values) cdf.add(v);
  return cdf.median();
}

double mean_or(const std::vector<double>& values, double fallback) {
  if (values.empty()) return fallback;
  Cdf cdf;
  for (const double v : values) cdf.add(v);
  return cdf.mean();
}

ExperimentConfig city_config(std::uint64_t seed, std::size_t shards) {
  ExperimentConfig config;
  config.suite = ProtocolSuite::kDigs;
  config.seed = seed;
  config.num_flows = 16;
  config.flow_period = seconds(std::int64_t{5});
  config.warmup = seconds(std::int64_t{300});
  config.duration = seconds(std::int64_t{120});
  config.stat_drain = seconds(std::int64_t{10});
  config.num_jammers = 0;
  config.shards = shards;
  return config;
}

struct CityRow {
  int devices{0};
  std::size_t shards{1};
  std::size_t threads{1};  // effective worker threads (after clamping)
  double build_s{0};   // Network construction (reachability tables, CSR)
  double run_s{0};     // warmup + measurement + drain wall-clock
  double imbalance{0};  // max/mean per-shard busy ns (profiled rows only)
  ExperimentResult result;
  std::string prof;  // per-row DIGS_PROF phase breakdown (empty when off)
};

CityRow run_city(int devices, std::uint64_t seed, std::size_t shards,
                 std::size_t threads, const ExperimentConfig& base) {
  using clock = std::chrono::steady_clock;
  CityRow row;
  row.devices = devices;
  ExperimentConfig config = base;
  config.shards = shards;
  config.shard_threads = threads;
  const auto t0 = clock::now();
  ExperimentRunner runner(city_floor(devices, seed), config);
  const auto t1 = clock::now();
  // Scope the profiler (when DIGS_PROF=1) to this row alone, so each JSON
  // entry carries its own phase breakdown.
  const bool prof_on = prof::enabled();
  if (prof_on) prof::reset();
  row.result = runner.run();
  const auto t2 = clock::now();
  if (prof_on) row.prof = prof::json();
  Network& net = runner.network();
  row.shards = net.num_shards();
  row.threads = net.num_shard_threads();
  if (prof_on) {
    // Load imbalance across shards: busiest shard's cumulative region time
    // over the mean. 1.0 is perfect balance; the worker pool can at best
    // finish a slot in (imbalance / threads) of the summed shard work.
    const std::vector<std::uint64_t>& busy = net.shard_busy_ns();
    std::uint64_t max = 0;
    std::uint64_t sum = 0;
    for (const std::uint64_t ns : busy) {
      max = std::max(max, ns);
      sum += ns;
    }
    if (sum > 0) {
      row.imbalance = static_cast<double>(max) *
                      static_cast<double>(busy.size()) /
                      static_cast<double>(sum);
    }
  }
  row.build_s = std::chrono::duration<double>(t1 - t0).count();
  row.run_s = std::chrono::duration<double>(t2 - t1).count();
  return row;
}

void print_city_row(const CityRow& row) {
  std::printf("%8d %5zu %5zu | %8.3f %8.0f %8.1f | %8.1f %8.1f\n",
              row.devices, row.shards, row.threads, row.result.overall_pdr,
              median_or(row.result.latencies_ms, 0.0),
              mean_or(row.result.join_times_s, 0.0), row.build_s, row.run_s);
  std::fflush(stdout);
}

/// Exact comparison of the observables the shard-invariance contract pins:
/// sharded reception resolution merges in listener order, so every metric
/// must be bit-identical to the serial run.
bool identical(const ExperimentResult& a, const ExperimentResult& b) {
  return a.generated == b.generated && a.delivered == b.delivered &&
         a.overall_pdr == b.overall_pdr && a.flow_pdrs == b.flow_pdrs &&
         a.latencies_ms == b.latencies_ms && a.duty_cycle == b.duty_cycle &&
         a.energy_per_delivered_mj == b.energy_per_delivered_mj &&
         a.guard_misses == b.guard_misses &&
         a.desync_events == b.desync_events &&
         a.join_times_s == b.join_times_s;
}

int run_smoke() {
  bench::header("ext_scaling (smoke)",
                "Sharded city row under the sanitizer presets");
  ExperimentConfig config = city_config(90, 1);
  config.warmup = seconds(std::int64_t{60});
  config.duration = seconds(std::int64_t{30});
  const int devices = 288;
  const CityRow serial = run_city(devices, 90, 1, 1, config);
  // shards = threads = 0 defer to DIGS_SHARDS / DIGS_SHARD_THREADS, so the
  // env knob path (the one check.sh exercises under TSan, with a real
  // multi-thread worker pool) is the code under test.
  const CityRow sharded = run_city(devices, 90, 0, 0, config);
  std::printf("%8s %5s %5s | %8s %8s %8s | %8s %8s\n", "devices", "shrd",
              "thr", "PDR", "medLat", "join_s", "build_s", "run_s");
  print_city_row(serial);
  print_city_row(sharded);
  if (!identical(serial.result, sharded.result)) {
    std::printf("\nFAIL: sharded smoke run diverged from the serial run\n");
    return 1;
  }
  std::printf("\nsmoke OK: sharded run bit-identical to serial\n");
  return 0;
}

}  // namespace

int main() {
  if (const char* env = std::getenv("DIGS_SCALING_SMOKE");
      env != nullptr && env[0] == '1') {
    return run_smoke();
  }

  bench::header("ext_scaling",
                "Extension: scalability sweep at constant density");
  const bool city_only = [] {
    const char* env = std::getenv("DIGS_SCALING_CITY_ONLY");
    return env != nullptr && env[0] == '1';
  }();
  const int runs = bench::default_runs(3);
  const int city_cap = bench::env_setting("DIGS_SCALING_MAX_DEVICES");
  const int city_max = city_cap > 0 ? city_cap : 10000;
  const int city_min = bench::env_setting("DIGS_SCALING_MIN_DEVICES");
  std::printf("%d runs per size; 8 flows @ 5 s, no interference\n\n", runs);
  std::printf("%8s %12s | %-26s | %-26s\n", "", "", "DiGS", "Orchestra");
  std::printf("%8s %12s | %8s %8s %8s | %8s %8s %8s\n", "devices", "",
              "PDR", "medLat", "join_s", "PDR", "medLat", "join_s");

  static constexpr int kPaperSizes[] = {18, 48, 98, 148};
  const std::span<const int> paper_sizes =
      city_only ? std::span<const int>{} : std::span<const int>{kPaperSizes};
  for (const int devices : paper_sizes) {
    double row[2][3] = {};
    for (const ProtocolSuite suite :
         {ProtocolSuite::kDigs, ProtocolSuite::kOrchestra}) {
      Cdf pdr;
      Cdf latency;
      Cdf join;
      std::vector<TrialSpec> trials;
      for (int run = 0; run < runs; ++run) {
        ExperimentConfig config;
        config.suite = suite;
        config.seed = 16'000 + run;
        config.num_flows = 8;
        config.flow_period = seconds(static_cast<std::int64_t>(5));
        config.warmup = seconds(static_cast<std::int64_t>(300));
        config.duration = seconds(static_cast<std::int64_t>(240));
        config.num_jammers = 0;
        trials.push_back(TrialSpec{scaled_floor(devices, 40 + run), config});
      }
      for (const ExperimentResult& result : run_trials(trials)) {
        pdr.add(result.overall_pdr);
        for (const double ms : result.latencies_ms) latency.add(ms);
        for (const double t : result.join_times_s) join.add(t);
      }
      const int idx = suite == ProtocolSuite::kDigs ? 0 : 1;
      row[idx][0] = pdr.mean();
      row[idx][1] = latency.median();
      row[idx][2] = join.mean();
    }
    std::printf("%8d %12s | %8.3f %8.0f %8.1f | %8.3f %8.0f %8.1f\n",
                devices, "", row[0][0], row[0][1], row[0][2], row[1][0],
                row[1][1], row[1][2]);
    std::fflush(stdout);
  }

  // --- city-scale rows: one DiGS trial each, sharding on 5k and 10k ---
  bench::section("city scale (DiGS, multiple APs, sparse medium)");
  std::printf("%8s %5s %5s | %8s %8s %8s | %8s %8s\n", "devices", "shrd",
              "thr", "PDR", "medLat", "join_s", "build_s", "run_s");

  const unsigned hw = std::thread::hardware_concurrency();

  std::vector<CityRow> city_rows;
  bool ran_5k_pair = false;
  bool ran_5k_mt = false;
  bool shard_mismatch = false;
  double overhead_5k = 0.0;  // 8-shard/1-thread run_s over serial run_s
  double speedup_5k = 0.0;   // serial run_s over 8-shard/hw-thread run_s
  bool ran_10k_serial = false;
  bool ran_10k_sharded = false;
  bool mismatch_10k = false;
  double speedup_10k = 0.0;
  double serial_fraction_10k = -1.0;
  std::size_t threads_10k = 1;
  for (const int devices : {1000, 5000, 10000}) {
    if (devices > city_max || devices < city_min) continue;
    const ExperimentConfig config = city_config(90, 1);
    CityRow serial = run_city(devices, 90, 1, 1, config);
    print_city_row(serial);
    city_rows.push_back(serial);
    if (devices == 10000) ran_10k_serial = serial.result.generated > 0;
    if (devices == 5000) {
      // Pipeline overhead: 8 shards on ONE worker thread runs the sharded
      // regions (work lists, defer buffers, replay) on a pool with no extra
      // workers, inline on the caller, so run_s over serial run_s is the
      // pure cost of the machinery. Gated at 5%.
      CityRow one_thread = run_city(devices, 90, 8, 1, config);
      print_city_row(one_thread);
      ran_5k_pair = true;
      shard_mismatch = !identical(serial.result, one_thread.result);
      overhead_5k =
          serial.run_s > 0 ? one_thread.run_s / serial.run_s : 0.0;
      city_rows.push_back(one_thread);
      if (hw >= 4) {
        CityRow mt = run_city(devices, 90, 8, hw, config);
        print_city_row(mt);
        ran_5k_mt = true;
        shard_mismatch =
            shard_mismatch || !identical(serial.result, mt.result);
        speedup_5k = mt.run_s > 0 ? serial.run_s / mt.run_s : 0.0;
        city_rows.push_back(mt);
      }
    }
    if (devices == 10000) {
      // Sharded 10k row with the profiler forced on: measures the serial
      // fraction of the parallel pipeline (the phases that cannot be
      // sharded — wake-heap drain, attempt buckets + on-air, reception
      // compaction, ACK resolution, wake refresh — over the whole slot
      // body) and the per-shard busy-time imbalance. On >=8-thread
      // hardware it also runs on the full pool and gates the end-to-end
      // speedup.
      threads_10k = hw >= 8 ? static_cast<std::size_t>(hw) : 1;
      const bool prof_was_on = prof::enabled();
      prof::force_enabled(true);
      CityRow sharded = run_city(devices, 90, 8, threads_10k, config);
      prof::force_enabled(prof_was_on);
      const std::uint64_t slot_total = prof::total_ns(prof::kSlotTotal);
      const std::uint64_t serial_ns = prof::total_ns(prof::kWakePop) +
                                      prof::total_ns(prof::kBucketBuild) +
                                      prof::total_ns(prof::kMergeCompact) +
                                      prof::total_ns(prof::kAckResolve) +
                                      prof::total_ns(prof::kWakeRefresh);
      if (slot_total > 0) {
        serial_fraction_10k = static_cast<double>(serial_ns) /
                              static_cast<double>(slot_total);
      }
      print_city_row(sharded);
      ran_10k_sharded = true;
      mismatch_10k = !identical(serial.result, sharded.result);
      speedup_10k = sharded.run_s > 0 ? serial.run_s / sharded.run_s : 0.0;
      city_rows.push_back(sharded);
    }
  }

  // Gate evaluation up front so the JSON can record the outcomes. The
  // bit-identity contract, the 1-thread overhead bound, the serial
  // fraction, and the multi-thread speedup targets are INDEPENDENT:
  // identity/overhead/serial-fraction must hold whenever their rows ran;
  // the speedup thresholds only gate where there are enough hardware
  // threads to make them meaningful.
  const bool ran_10k = city_max >= 10000 && city_min <= 10000;
  const bool fail_10k = ran_10k && !ran_10k_serial;
  const char* overhead_gate = "not_run";
  if (ran_5k_pair) overhead_gate = overhead_5k <= 1.05 ? "ok" : "fail";
  const char* speedup_gate_5k = "not_run";
  double speedup_threshold = 0.0;
  if (ran_5k_pair) {
    if (hw >= 4) {
      speedup_threshold = hw >= 8 ? 3.0 : 1.8;
      speedup_gate_5k = speedup_5k >= speedup_threshold ? "ok" : "fail";
    } else {
      speedup_gate_5k = "skipped_low_hw";
    }
  }
  const char* speedup_gate_10k = "not_run";
  if (ran_10k_sharded) {
    speedup_gate_10k = hw >= 8 ? (speedup_10k >= 4.0 ? "ok" : "fail")
                               : "skipped_low_hw";
  }
  const char* serial_fraction_gate = "not_run";
  if (serial_fraction_10k >= 0.0) {
    serial_fraction_gate = serial_fraction_10k < 0.20 ? "ok" : "fail";
  }

  std::FILE* out = std::fopen("BENCH_scaling.json", "w");
  if (out != nullptr) {
    std::fprintf(
        out,
        "{\n"
        "  \"methodology\": \"constant density; paper-scale rows 18-148 "
        "devices (31.25 m^2/device, 2 APs, DiGS vs Orchestra); city rows "
        "1k/5k/10k devices (312 m^2/device, path-loss exponent 3.5, "
        "admission -84 dBm, one AP per 100 devices on an internal grid, "
        "DiGS only, 16 flows @5s, 300s warmup + 120s window); the 5k row "
        "repeats at 8 shards / 1 worker thread (pipeline overhead, gated "
        "at 5%% over serial) and, with >=4 hardware threads, at 8 shards "
        "/ hw threads (speedup); the 10k row repeats sharded with the "
        "profiler forced on to measure the pipeline's serial fraction "
        "(gated below 20%%) and per-shard busy-time imbalance (max/mean); "
        "every sharded run must be bit-identical to its serial run; "
        "threads is the effective worker count after clamping; build_s is "
        "Network construction (reachability + CSR tables), run_s the "
        "simulation wall-clock; prof fragments appear per row when "
        "profiled\",\n"
        "  \"hardware_threads\": %u,\n"
        "  \"shard_overhead_5k_threads1\": %.3f,\n"
        "  \"overhead_gate_5k\": \"%s\",\n"
        "  \"shard_bit_identical\": %s,\n"
        "  \"shard_speedup_5k\": %.3f,\n"
        "  \"speedup_gate_5k\": \"%s\",\n"
        "  \"shard_speedup_10k\": %.3f,\n"
        "  \"speedup_gate_10k\": \"%s\",\n"
        "  \"serial_fraction_10k\": %.4f,\n"
        "  \"serial_fraction_gate\": \"%s\",\n"
        "  \"city_rows\": [\n",
        hw, overhead_5k, overhead_gate,
        (ran_5k_pair || ran_10k_sharded)
            ? ((shard_mismatch || mismatch_10k) ? "false" : "true")
            : "null",
        speedup_5k, speedup_gate_5k, speedup_10k, speedup_gate_10k,
        serial_fraction_10k, serial_fraction_gate);
    for (std::size_t i = 0; i < city_rows.size(); ++i) {
      const CityRow& r = city_rows[i];
      std::fprintf(out,
                   "    {\"devices\": %d, \"shards\": %zu, \"threads\": %zu, "
                   "\"pdr\": %.4f, "
                   "\"median_latency_ms\": %.1f, \"mean_join_s\": %.1f, "
                   "\"build_s\": %.2f, \"run_s\": %.2f, \"imbalance\": %.3f",
                   r.devices, r.shards, r.threads, r.result.overall_pdr,
                   median_or(r.result.latencies_ms, 0.0),
                   mean_or(r.result.join_times_s, 0.0), r.build_s, r.run_s,
                   r.imbalance);
      if (!r.prof.empty()) std::fprintf(out, ", \"prof\": %s", r.prof.c_str());
      std::fprintf(out, "}%s\n", i + 1 < city_rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("\nwrote BENCH_scaling.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_scaling.json\n");
  }

  std::printf(
      "\nBoth suites form autonomously at every size — no centralized\n"
      "manager in the loop (contrast bench/fig03: the WirelessHART manager\n"
      "already needs ~10 minutes at 50 nodes). Deeper networks stretch\n"
      "latency for both; DiGS's backup routes keep reliability flatter as\n"
      "the mesh grows. The city rows run on the sparse (CSR) medium with\n"
      "the spatial-grid coupling cutoff; intra-trial sharding splits each\n"
      "slot's reception resolution across DIGS_SHARDS cells.\n");

  // --- gates ---
  int status = 0;
  if (fail_10k) {
    std::printf("GATE FAIL: the 10k-device row did not complete\n");
    status = 1;
  }
  // Bit-identity reports its own verdict whenever a sharded run happened —
  // even when the speedup gates below are skipped on low-core hardware, a
  // shard divergence must never pass silently.
  if (ran_5k_pair || ran_10k_sharded) {
    if (shard_mismatch || mismatch_10k) {
      std::printf("GATE FAIL: a sharded run diverged from its serial run "
                  "(5k mismatch=%d, 10k mismatch=%d)\n",
                  shard_mismatch ? 1 : 0, mismatch_10k ? 1 : 0);
      status = 1;
    } else {
      std::printf("gate OK: every sharded run bit-identical to serial\n");
    }
  }
  // Pipeline overhead: the sharded machinery at ONE worker thread must be
  // nearly free, or single-core users pay for parallelism they don't get.
  if (std::string(overhead_gate) == "fail") {
    std::printf(
        "GATE FAIL: 5k 8-shard/1-thread run %.1f%% over serial (max 5%%)\n",
        (overhead_5k - 1.0) * 100.0);
    status = 1;
  } else if (ran_5k_pair) {
    std::printf("gate OK: 5k 8-shard/1-thread overhead %+.1f%% (max +5%%)\n",
                (overhead_5k - 1.0) * 100.0);
  }
  // The speedup targets need real cores: 8 shards on >=8 hardware threads
  // should hit 3x at 5k and 4x at 10k (bigger slots amortize the barriers
  // better); on a 4-7 thread box ask 5k for 1.8x; below that the bench
  // records the ratios but cannot gate on them.
  if (std::string(speedup_gate_5k) == "fail") {
    std::printf("GATE FAIL: 5k shard speedup %.2fx < %.1fx (hw=%u)\n",
                speedup_5k, speedup_threshold, hw);
    status = 1;
  } else if (std::string(speedup_gate_5k) == "ok") {
    std::printf("gate OK: 5k shard speedup %.2fx (threshold %.1fx)\n",
                speedup_5k, speedup_threshold);
  } else if (ran_5k_pair && !ran_5k_mt) {
    std::printf("5k speedup gate skipped: %u hardware thread(s)\n", hw);
  }
  if (std::string(speedup_gate_10k) == "fail") {
    std::printf("GATE FAIL: 10k shard speedup %.2fx < 4.0x (hw=%u)\n",
                speedup_10k, hw);
    status = 1;
  } else if (std::string(speedup_gate_10k) == "ok") {
    std::printf("gate OK: 10k shard speedup %.2fx (threshold 4.0x)\n",
                speedup_10k);
  } else if (ran_10k_sharded) {
    std::printf(
        "10k speedup gate skipped: %u hardware thread(s); measured %.2fx "
        "at %zu thread(s)\n",
        hw, speedup_10k, threads_10k);
  }
  // Amdahl: whatever the core count, the serial phases bound the pipeline.
  if (std::string(serial_fraction_gate) == "fail") {
    std::printf("GATE FAIL: 10k serial fraction %.1f%% >= 20%%\n",
                serial_fraction_10k * 100.0);
    status = 1;
  } else if (std::string(serial_fraction_gate) == "ok") {
    std::printf("gate OK: 10k serial fraction %.1f%% (< 20%%)\n",
                serial_fraction_10k * 100.0);
  }
  return status;
}
