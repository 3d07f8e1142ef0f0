// Shared helpers for the figure benches: consistent printing of CDFs,
// boxplots and paper-vs-measured rows, and reduced-scale run counts
// (the paper runs hundreds of flow sets on real testbeds; a bench binary
// runs a representative number and prints how many).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/env.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/node.h"
#include "testbed/experiment.h"

namespace digs::bench {

/// Hardware concurrency as reported by the host, for BENCH json headers:
/// wall-clock numbers are only comparable across runs on similar hardware,
/// so every emitted file records the thread count it was measured with.
inline unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// City-scale square at constant density (312 m^2/device — sparser than
/// Testbed A, like an outdoor industrial district), path-loss exponent 3.5
/// so the decode radius stays around 114 m and the spatial grid spans many
/// cells. One AP per ~100 devices (min 2), laid out on an even internal
/// grid so every device is a couple of hops from some AP — the paper's
/// testbeds run ~1 AP per 25 devices; a city deployment would bring
/// backbone-connected gateways at a similar order. Shared by ext_scaling
/// (the city sweep) and micro_core (the busy-slot row): both must measure
/// the same floor.
inline TestbedLayout city_floor(int devices, std::uint64_t seed) {
  Rng rng(hash_mix(seed, 0xC17F));
  TestbedLayout layout;
  layout.name = "city-" + std::to_string(devices);
  layout.path_loss_exponent = 3.5;
  layout.admission_rss_dbm = -84.0;
  const int aps = std::max(2, devices / 100);
  layout.num_access_points = static_cast<std::uint16_t>(aps);
  const double side = std::sqrt(312.0 * devices);
  // APs on the centers of a ceil(sqrt(aps))-column internal grid.
  const int ap_cols = static_cast<int>(std::ceil(std::sqrt(aps)));
  const int ap_rows = (aps + ap_cols - 1) / ap_cols;
  for (int a = 0; a < aps; ++a) {
    const double ax = ((a % ap_cols) + 0.5) * side / ap_cols;
    const double ay = ((a / ap_cols) + 0.5) * side / ap_rows;
    layout.positions.push_back(Position{ax, ay, 0});
  }
  for (int i = 0; i < devices; ++i) {
    layout.positions.push_back(
        Position{rng.uniform(0.0, side), rng.uniform(0.0, side), 0.0});
  }
  return layout;
}

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

inline void paper_row(const std::string& metric, const std::string& paper,
                      double measured, const std::string& unit) {
  std::printf("  %-44s paper: %-16s measured: %10.3f %s\n", metric.c_str(),
              paper.c_str(), measured, unit.c_str());
}

inline void print_cdf(const Cdf& cdf, const std::string& label,
                      const std::string& unit) {
  std::fputs(format_cdf(cdf, label, unit, 11).c_str(), stdout);
}

inline void print_boxplot(const Cdf& cdf, const std::string& label) {
  std::fputs(format_boxplot(cdf.boxplot(), label).c_str(), stdout);
}

/// A count-valued bench setting parsed by env_count() (0 when unset,
/// empty or 0). A malformed value prints env_count()'s message and exits
/// with status 2: a plain failing exit, not an uncaught-exception abort.
inline int env_setting(const char* name) {
  try {
    return static_cast<int>(
        env_count(name, std::numeric_limits<int>::max()));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

/// Number of repeated flow sets per configuration. The paper uses 300 (A)
/// and 220 (B); benches default to a smaller representative count so the
/// full suite finishes in minutes. Override with DIGS_BENCH_RUNS.
inline int default_runs(int fallback = 10) {
  const int runs = env_setting("DIGS_BENCH_RUNS");
  return runs > 0 ? runs : fallback;
}

}  // namespace digs::bench
