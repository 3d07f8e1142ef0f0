// The benchmark's workloads. Each one is a batch of experiment trials (one
// "pass") generated from the workload seed and run back to back through
// ExperimentRunner; the benchmark repeats the pass for its time budget.
// README.md in this directory records why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "testbed/experiment.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// One pass: the trials, in run order, all on one layout.
  std::vector<digs::TrialSpec> trials;
};

/// Builds `name`'s pass from `seed`; `reduced` shrinks it for the self-test.
/// Names: city_storm, city_sharded, paper_sweep, paper_churn. Throws
/// std::invalid_argument for any other.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool reduced = false);

}  // namespace perfbench
